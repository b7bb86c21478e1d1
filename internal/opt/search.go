package opt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/access"
	"repro/internal/obs"
	"repro/internal/score"
)

// Plan is a chosen SR/G configuration with its estimated cost, the
// optimization overhead (number of simulation runs) spent finding it, and
// how that search started. A plan-cache hit returns the plan as it was
// searched, Source included: the hit itself is the lookup's outcome, which
// the cache reports as its PlanCache event. Evals is an int32 so that
// Source fits beside it in a 64-byte Plan, the size that keeps a served
// answer and its plan copy in one 208-byte allocation.
type Plan struct {
	H             []float64
	Omega         []int
	EstimatedCost access.Cost
	Evals         int32
	Source        Source
}

// Source says how a plan's search started. Its values are the codes of
// the obs.PlanCache event that reports the plan.
type Source uint8

const (
	// SourceCold is a search with no prior: every scheme, and HClimb's
	// multi-start from the lattice midpoint and random points.
	SourceCold = Source(obs.Miss)
	// SourceWarm is HClimb from one start, the depths of the cached plan
	// of the nearest weights of the same weighted sum.
	SourceWarm = Source(obs.Warm)
)

// String returns "cold" or "warm".
func (s Source) String() string {
	if int(s) < len(obs.PlanSources) {
		return obs.PlanSources[s]
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// CopyFrom makes p a copy of src that shares no memory with it, reusing p's
// own backing arrays when they are long enough: copying into a recycled
// Plan allocates nothing, into a zero one exactly its two slices.
func (p *Plan) CopyFrom(src *Plan) {
	h, omega := append(p.H[:0], src.H...), append(p.Omega[:0], src.Omega...)
	*p = *src
	p.H, p.Omega = h, omega
}

// Scheme selects the H-search strategy of Section 7.2.
type Scheme int

const (
	// SchemeHClimb is multi-start hill climbing, "evaluated to be the most
	// effective" in the paper's appendix; the default.
	SchemeHClimb Scheme = iota
	// SchemeNaive meshes the whole H space into a grid and evaluates every
	// point; the exhaustive baseline.
	SchemeNaive
	// SchemeStrategies focuses on configurations matching the scoring
	// function's shape (focused for min-like, equal-depth for mean-like).
	SchemeStrategies
	// SchemeGreedy is the statistics-free planner: H and Omega picked in
	// closed form from capability/cost asymmetries and observed stream
	// slopes, no simulation runs. The mid-query re-plan fast path and the
	// fallback when the estimator's sample is flagged stale.
	SchemeGreedy
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case SchemeHClimb:
		return "HClimb"
	case SchemeNaive:
		return "Naive"
	case SchemeStrategies:
		return "Strategies"
	case SchemeGreedy:
		return "Greedy"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// SchemeByName parses a scheme name.
func SchemeByName(name string) (Scheme, error) {
	for _, s := range []Scheme{SchemeHClimb, SchemeNaive, SchemeStrategies, SchemeGreedy} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("opt: unknown scheme %q", name)
}

// gridValues returns g evenly spaced depth values spanning [0,1].
func gridValues(g int) []float64 { return appendGrid(nil, g) }

// appendGrid is gridValues into a caller-owned buffer.
func appendGrid(dst []float64, g int) []float64 {
	g = max(g, 2)
	dst = slices.Grow(dst, g)
	for i := 0; i < g; i++ {
		dst = append(dst, float64(i)/float64(g-1))
	}
	return dst
}

// lattice readies the arena's search work space: the g grid values, and
// a depth vector and a zeroed grid-index vector for m predicates.
func (a *arena) lattice(g, m int) (vs, h []float64, idx []int) {
	a.vs = appendGrid(a.vs[:0], g)
	a.h = slices.Grow(a.h[:0], m)[:m]
	a.idx = slices.Grow(a.idx[:0], m)[:m]
	clear(a.idx)
	return a.vs, a.h, a.idx
}

// incumbent tracks a scheme's best configuration so far in the arena's
// buffer: candidates are priced in place and only the winner is copied
// out, into the Plan.
type incumbent struct {
	e    *Estimator
	cost access.Cost
}

func newIncumbent(e *Estimator) incumbent {
	e.a.bestH = e.a.bestH[:0]
	return incumbent{e: e, cost: -1}
}

// offer keeps h when it is strictly cheaper than the incumbent.
func (b *incumbent) offer(h []float64, c access.Cost) {
	if b.cost < 0 || c < b.cost {
		b.cost = c
		b.e.a.bestH = append(b.e.a.bestH[:0], h...)
	}
}

// plan copies the incumbent out.
func (b *incumbent) plan(omega []int) Plan {
	return Plan{H: slices.Clone(b.e.a.bestH), Omega: omega, EstimatedCost: b.cost, Evals: int32(b.e.Evals())}
}

// Naive exhaustively evaluates the full g^m mesh and returns the minimum.
// It refuses meshes larger than maxEvals points (Section 7.2 notes the
// space "explodes for large m"; that explosion is the point of E6).
func Naive(e *Estimator, omega []int, g, maxEvals int) (Plan, error) {
	a, m := e.a, e.m()
	points := 1
	for i := 0; i < m; i++ {
		points *= g
		if points > maxEvals {
			return Plan{}, fmt.Errorf("opt: Naive mesh %d^%d exceeds the %d-evaluation budget", g, m, maxEvals)
		}
	}
	vs, h, idx := a.lattice(g, m)
	best := newIncumbent(e)
	for {
		for i, j := range idx {
			h[i] = vs[j]
		}
		c, err := e.Estimate(h, omega)
		if err != nil {
			return Plan{}, err
		}
		best.offer(h, c)
		// Odometer increment.
		i := 0
		for ; i < m; i++ {
			idx[i]++
			if idx[i] < g {
				break
			}
			idx[i] = 0
		}
		if i == m {
			break
		}
	}
	return best.plan(omega), nil
}

// Strategies evaluates only configurations suiting the scoring function's
// shape (Example 11's observation: focused for min, parallel for avg),
// falling back to the union of both families for unclassified functions.
func Strategies(e *Estimator, f score.Func, omega []int, g int) (Plan, error) {
	a, m := e.a, e.m()
	vs, h, _ := a.lattice(g, m)
	best := newIncumbent(e)
	try := func() error {
		c, err := e.Estimate(h, omega)
		if err == nil {
			best.offer(h, c)
		}
		return err
	}

	focused := func() error {
		// Deep on one predicate, none on the rest.
		for i := 0; i < m; i++ {
			for _, t := range vs {
				for j := range h {
					h[j] = 1
				}
				h[i] = t
				if err := try(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	diagonal := func(lo float64) error {
		for _, t := range vs {
			if t < lo {
				continue
			}
			for j := range h {
				h[j] = t
			}
			if err := try(); err != nil {
				return err
			}
		}
		return nil
	}
	weighted := func(w []float64) error {
		// Depths proportional to weights: heavier predicates deeper.
		maxW := 0.0
		for _, x := range w {
			if x > maxW {
				maxW = x
			}
		}
		if maxW == 0 {
			return nil
		}
		for _, t := range vs {
			for j := range h {
				h[j] = 1 - (1-t)*(w[j]/maxW)
			}
			if err := try(); err != nil {
				return err
			}
		}
		return nil
	}

	var err error
	switch f.Shape() {
	case score.ShapeMinLike:
		if err = focused(); err == nil {
			err = diagonal(0) // keep the symmetric family as a safety net
		}
	case score.ShapeMeanLike:
		err = diagonal(0)
		if w, ok := f.(score.Weighter); ok && err == nil {
			err = weighted(w.Weights())
		}
	case score.ShapeMaxLike:
		if err = diagonal(0.5); err == nil { // shallow parallel depths
			err = focused()
		}
	default:
		if err = focused(); err == nil {
			err = diagonal(0)
		}
	}
	if err != nil {
		return Plan{}, err
	}
	return best.plan(omega), nil
}

// HClimb performs steepest-descent hill climbing on the grid lattice from
// several random starting points, the scheme the paper adopts for its
// experiments. Neighbors differ by one grid step in one dimension.
func HClimb(e *Estimator, omega []int, g, restarts int, seed int64) (Plan, error) {
	return climb(e, omega, g, restarts, seed, nil)
}

// climb is HClimb's search. A non-nil start, the depths of a plan for a
// nearby problem, replaces the restarts with one start at the grid point
// nearest it: a search with a prior needs no restarts to escape a poor
// anchor.
func climb(e *Estimator, omega []int, g, restarts int, seed int64, start []float64) (Plan, error) {
	a, m := e.a, e.m()
	vs, h, idx := a.lattice(g, m)
	// Re-seeding the arena's generator replays rand.NewSource(seed)'s
	// sequence without its 4.8 KiB of state per plan.
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(seed))
	} else {
		a.rng.Seed(seed)
	}
	if restarts < 1 || start != nil {
		restarts = 1
	}
	best := newIncumbent(e)

	at := func() (access.Cost, error) {
		for i, j := range idx {
			h[i] = vs[j]
		}
		return e.Estimate(h, omega)
	}
	for r := 0; r < restarts; r++ {
		switch {
		case r == 0 && start != nil:
			for i := range idx {
				idx[i] = min(max(int(math.Round(start[i]*float64(g-1))), 0), g-1)
			}
		case r == 0:
			// First start at the all-max-depth corner's midpoint, a
			// deterministic anchor that keeps single-restart runs stable.
			for i := range idx {
				idx[i] = (g - 1) / 2
			}
		default:
			for i := range idx {
				idx[i] = a.rng.Intn(g)
			}
		}
		cur, err := at()
		if err != nil {
			return Plan{}, err
		}
		for {
			bestN, bestNCost := -1, cur
			var bestDir int
			for i := 0; i < m; i++ {
				for _, d := range []int{-1, 1} {
					j := idx[i] + d
					if j < 0 || j >= g {
						continue
					}
					idx[i] = j
					c, err := at()
					idx[i] = j - d
					if err != nil {
						return Plan{}, err
					}
					if c < bestNCost {
						bestNCost, bestN, bestDir = c, i, d
					}
				}
			}
			if bestN < 0 {
				break
			}
			idx[bestN] += bestDir
			cur = bestNCost
		}
		for i, j := range idx {
			h[i] = vs[j]
		}
		best.offer(h, cur)
	}
	plan := best.plan(omega)
	if start != nil {
		plan.Source = SourceWarm
	}
	return plan, nil
}
