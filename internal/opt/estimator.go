// Package opt implements the paper's dynamic cost-based optimization
// (Section 7): searching the SR/G-reduced NC space for a low-cost
// (H, Omega) configuration.
//
//   - Cost estimation (Section 7.3) runs the actual SR/G algorithm on a
//     sample dataset — a "simulation run" — with the retrieval size scaled
//     proportionally (k' = k*|sample|/n) and the resulting cost scaled back
//     up. Samples may come from the real data or be "dummy" samples from
//     an assumed uniform distribution when real statistics are
//     unavailable, the paper's worst-case setting. An engine over a
//     single-node base plans on min(1000, n/100) rows drawn from it
//     (topk.NewEngine); the dummy is left for small bases and the
//     cluster coordinator.
//   - H-optimization (Section 7.2) offers the paper's three schemes:
//     Naive exhaustive grid search, query-driven Strategies, and
//     multi-start hill climbing (HClimb, the paper's pick).
//   - Omega-optimization adopts MPro's global probe scheduling: predicates
//     ordered by expected bound reduction per unit of probe cost.
package opt

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/score"
)

// Estimator prices SR/G configurations by simulation runs on a sample.
// It memoizes estimates per configuration, so search schemes can revisit
// grid points for free; Evals counts distinct simulation runs, the
// optimization-overhead measure of the paper's appendix experiment. An
// Estimator is the handle of the arena its runs execute on, and like it
// is not safe for concurrent use.
type Estimator struct {
	a      *arena
	f      score.Func
	kPrime int
	scale  float64 // n / |sample|

	evals int
	obs   obs.Observer // nil unless SetObserver
}

// SetObserver streams estimator events (one EstimatorEval per Estimate
// call, distinguishing memoized from simulated) into the observer.
func (e *Estimator) SetObserver(o obs.Observer) { e.obs = o }

// NewEstimator builds an estimator for a query of size k over n objects
// under the given scenario, using the provided sample dataset. The sample
// must have the scenario's predicate count.
func NewEstimator(sample *data.Dataset, scn access.Scenario, f score.Func, k, n int, nwg bool) (*Estimator, error) {
	a := &arena{}
	if err := a.Reset(Config{Sample: sample, DisableNWG: !nwg}, scn, f, k, n); err != nil {
		return nil, err
	}
	return &a.est, nil
}

// Evals returns the number of distinct simulation runs performed so far.
func (e *Estimator) Evals() int { return e.evals }

// KPrime returns the scaled retrieval size used in simulation runs.
func (e *Estimator) KPrime() int { return e.kPrime }

// m returns the predicate count of the query: the sample's columns it
// reads (and so the width of every configuration the estimator can price).
func (e *Estimator) m() int { return e.a.sess.M() }

// Estimate returns the estimated total access cost of NC with SR/G
// configuration (h, omega) on the full database: the simulation run's cost
// scaled by n/|sample|.
func (e *Estimator) Estimate(h []float64, omega []int) (access.Cost, error) {
	if c, ok := e.a.memo.lookup(h, omega); ok {
		if e.obs != nil {
			e.obs.Observe(obs.Event{Kind: obs.EstimatorEval, Code: obs.Hit})
		}
		return c, nil
	}
	if e.obs != nil {
		e.obs.Observe(obs.Event{Kind: obs.EstimatorEval, Code: obs.Miss})
	}
	cost, err := e.simulate(h, omega)
	if err != nil {
		return 0, err
	}
	e.a.memo.insert(cost)
	e.evals++
	return cost, nil
}

// simulate is one simulation run: NC under SR/G(h, omega) proves the top
// k' of the sample and the session's bill is scaled up to the database.
// Selector, session and problem are re-armed in place and the run builds
// no answer, so a run allocates nothing; a rejected configuration or a
// failed run leaves nothing behind that the next run does not re-arm.
//
//topklint:hotpath
func (e *Estimator) simulate(h []float64, omega []int) (access.Cost, error) {
	a := e.a
	if len(h) != e.m() {
		return 0, fmt.Errorf("opt: configuration has %d depths, the query has %d predicates", len(h), e.m())
	}
	if err := a.srg.Reconfigure(h, omega); err != nil {
		return 0, err
	}
	if err := a.sess.Reset(a.sessOpt); err != nil {
		return 0, err
	}
	if err := a.prob.Rearm(e.f, e.kPrime); err != nil {
		return 0, err
	}
	cur, err := a.nc.Open(&a.prob, &a.scratch)
	if err == nil {
		_, err = cur.Skip(e.kPrime)
	}
	if err != nil {
		return 0, fmt.Errorf("opt: simulation run failed for H=%v Omega=%v: %w", h, omega, err)
	}
	return access.Cost(math.Round(float64(a.sess.TotalCost()) * e.scale)), nil
}

// OptimizeOmega computes a global probe schedule following MPro's
// cost-based scheduling insight: probe first the predicate expected to
// shrink an object's maximal-possible score the most per unit of random-
// access cost. The expected shrink of predicate i is estimated from the
// sample as 1 - mean(p_i) (how far, on average, the perfect bound falls
// when the probe lands); predicates without random access go last, in
// index order, since they can only be resolved by sorted access anyway.
func OptimizeOmega(sample *data.Dataset, scn access.Scenario) []int {
	return scheduleByGain(appendProbeGains(nil, appendMeans(nil, sample), nil, scn))
}

// appendMeans appends the sample's per-predicate mean scores to dst.
func appendMeans(dst []float64, sample *data.Dataset) []float64 {
	dst = slices.Grow(dst, sample.M())
	for i := 0; i < sample.M(); i++ {
		sum := 0.0
		for u := 0; u < sample.N(); u++ {
			sum += sample.Score(u, i)
		}
		dst = append(dst, sum/float64(sample.N()))
	}
	return dst
}

// appendProbeGains appends each predicate's expected bound reduction per
// unit of probe cost, -Inf where the scenario forbids the probe. Predicate
// i's mean is means[cols[i]], or means[i] when cols is nil.
func appendProbeGains(dst, means []float64, cols []int, scn access.Scenario) []float64 {
	dst = slices.Grow(dst, len(scn.Preds))
	for i, pc := range scn.Preds {
		mean := means[i]
		if cols != nil {
			mean = means[cols[i]]
		}
		if !pc.RandomOK {
			dst = append(dst, math.Inf(-1))
			continue
		}
		cost := pc.Random.Units()
		if cost <= 0 {
			cost = 1e-9
		}
		dst = append(dst, (1-mean)/cost)
	}
	return dst
}

// scheduleByGain orders the predicates by gain descending, index
// ascending on ties (a stable selection sort: m is tiny, clarity over
// cleverness). The schedule is freshly allocated — it leaves in the Plan.
func scheduleByGain(gain []float64) []int {
	omega := make([]int, 0, len(gain))
	for len(omega) < len(gain) {
		best := -1
		for i := range gain {
			if slices.Contains(omega, i) {
				continue
			}
			if best == -1 || gain[i] > gain[best] {
				best = i
			}
		}
		omega = append(omega, best)
	}
	return omega
}

// OptimizeOmegaExhaustive searches all m! probe schedules with the
// estimator at the given depth configuration and returns the cheapest.
// It exists to validate the greedy OptimizeOmega (the paper adopts MPro's
// global scheduling precisely because exhaustive per-object scheduling
// "significantly reduc[es] the complexity" without hurting quality) and is
// practical only for small m; it refuses m > maxExhaustiveOmega.
func OptimizeOmegaExhaustive(e *Estimator, h []float64) ([]int, access.Cost, error) {
	m := e.m()
	const maxExhaustiveOmega = 6
	if m > maxExhaustiveOmega {
		return nil, 0, fmt.Errorf("opt: exhaustive Omega search refuses m=%d (> %d): %d! schedules", m, maxExhaustiveOmega, m)
	}
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	var best []int
	bestCost := access.Cost(-1)
	var recurse func(depth int) error
	recurse = func(depth int) error {
		if depth == m {
			c, err := e.Estimate(h, perm)
			if err != nil {
				return err
			}
			if bestCost < 0 || c < bestCost {
				bestCost = c
				best = append(best[:0], perm...)
			}
			return nil
		}
		for i := depth; i < m; i++ {
			perm[depth], perm[i] = perm[i], perm[depth]
			if err := recurse(depth + 1); err != nil {
				return err
			}
			perm[depth], perm[i] = perm[i], perm[depth]
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, 0, err
	}
	return best, bestCost, nil
}
