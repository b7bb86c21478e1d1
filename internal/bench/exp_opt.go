package bench

import (
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/score"
	"repro/internal/state"
	"repro/internal/stats"
)

// RunE6 regenerates the appendix's scheme comparison: for several query
// scenarios, the plan quality (realized cost of the configuration each
// scheme picks) and the optimization overhead (number of simulation runs,
// and planning time) of Naive, Strategies, HClimb and the statistics-free
// Greedy. Expected shape: the three searches land on similar-quality plans;
// Naive pays by far the most evaluations, HClimb is the best
// quality-per-overhead trade (the paper adopts it).
//
// The S4 rows are the plan cache's warm start (opt.OptimizeFrom) on a
// drifting weighted sum over the Figure-2 cells: the user's plan for
// weights w is the start of the search for w + (d, 0, 0). Cold HClimb, the
// warm start and Greedy each plan the drifted weights; the last column is
// each plan's realized cost over cold HClimb's. The plan cache's neighbour
// radius is the largest d at which the warm start still matches cold.
func RunE6(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "E6",
		Title:  "optimization schemes: plan quality vs search overhead",
		Header: []string{"scenario", "scheme", "estimated cost", "realized cost", "estimator runs", "planning us", "realized / cold HClimb"},
	}
	grid := 7
	if cfg.Quick {
		grid = 5
	}
	type scenario struct {
		name string
		f    score.Func
		scn  access.Scenario
	}
	scns := []scenario{
		{"S1: avg, cs=cr=1", score.Avg(), access.Uniform(2, 1, 1)},
		{"S2: min, cs=cr=1", score.Min(), access.Uniform(2, 1, 1)},
		{"S3: min, cr=10cs", score.Min(), access.Uniform(2, 1, 10)},
	}
	ds, err := data.Generate(data.Uniform, cfg.N, 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, sc := range scns {
		var rows []planRow
		for _, scheme := range []opt.Scheme{opt.SchemeNaive, opt.SchemeStrategies, opt.SchemeHClimb, opt.SchemeGreedy} {
			ocfg := opt.Config{Scheme: scheme, Grid: grid, Seed: cfg.Seed}
			r, err := timePlan(scheme.String(), ds, sc.scn, sc.f, cfg.K, func() (opt.Plan, error) {
				return opt.Optimize(ocfg, sc.scn, sc.f, cfg.K, ds.N())
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
		addPlanRows(t, sc.name, rows, rows[2].realized)
	}

	// S4: a weighted sum drifting away from the plan it was served.
	const m = 3
	ds3, err := data.Generate(data.Uniform, cfg.N, m, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cells := []struct {
		name string
		s, r access.Capability
	}{
		{"sa-cheap/ra-cheap", access.Cheap, access.Cheap},
		{"sa-cheap/ra-expensive", access.Cheap, access.Expensive},
		{"sa-cheap/ra-impossible", access.Cheap, access.Impossible},
		{"sa-impossible/ra-expensive", access.Impossible, access.Expensive},
		{"sa-expensive/ra-cheap", access.Expensive, access.Cheap},
	}
	drifts := []float64{0.001, 0.01, 0.05, 0.1, 0.2}
	if cfg.Quick {
		drifts = []float64{0.001, 0.05, 0.2}
	}
	ocfg := opt.Config{Seed: cfg.Seed}
	greedy := ocfg
	greedy.Scheme = opt.SchemeGreedy
	base := []float64{0.3, 0.25, 0.45}
	for _, cell := range cells {
		scn := access.MatrixCell(m, cell.s, cell.r, 10)
		served, err := opt.Optimize(ocfg, scn, score.Weighted(base...), cfg.K, ds3.N())
		if err != nil {
			return nil, err
		}
		for _, d := range drifts {
			f := score.Weighted(base[0]+d, base[1], base[2])
			var rows []planRow
			for _, p := range []struct {
				name  string
				cfg   opt.Config
				start []float64
			}{{"HClimb", ocfg, nil}, {"HClimb warm", ocfg, served.H}, {"Greedy", greedy, nil}} {
				r, err := timePlan(p.name, ds3, scn, f, cfg.K, func() (opt.Plan, error) {
					return opt.OptimizeFrom(p.cfg, scn, f, cfg.K, ds3.N(), p.start)
				})
				if err != nil {
					return nil, err
				}
				rows = append(rows, r)
			}
			addPlanRows(t, fmt.Sprintf("S4: wsum %s, d=%g", cell.name, d), rows, rows[0].realized)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: comparable realized costs; HClimb and Strategies use far fewer estimator runs than Naive",
		"S4: the warm start (one HClimb start at the served plan's depths) runs a fraction of cold HClimb's estimator runs and, for small drifts d, realizes the same cost",
		"paper artifact: appendix scheme comparison (HClimb adopted for Section 9)")
	return t, nil
}

// planRow is one planner's result in E6: its plan, what the plan realized,
// and the fastest of planRepeats planning calls.
type planRow struct {
	name     string
	plan     opt.Plan
	realized access.Cost
	took     time.Duration
}

// planRepeats is how many times E6 times each (deterministic) planning
// call; the fastest is reported, which leaves out the first call's pool
// and sample set-up.
const planRepeats = 5

// timePlan runs plan planRepeats times and realizes the plan it returns
// by running NC with it over ds.
func timePlan(name string, ds *data.Dataset, scn access.Scenario, f score.Func, k int, plan func() (opt.Plan, error)) (planRow, error) {
	r := planRow{name: name}
	for i := 0; i < planRepeats; i++ {
		start := time.Now()
		p, err := plan()
		took := time.Since(start)
		if err != nil {
			return planRow{}, err
		}
		if i == 0 || took < r.took {
			r.took = took
		}
		r.plan = p
	}
	var err error
	r.realized, err = runNC(r.plan.H, r.plan.Omega, ds, scn, f, k)
	return r, err
}

// addPlanRows adds one E6 row per planner of a scenario, with its realized
// cost over cold, cold HClimb's in the same scenario.
func addPlanRows(t *Table, scenario string, rows []planRow, cold access.Cost) {
	for _, r := range rows {
		ratio := "n/a"
		if cold > 0 {
			ratio = fmt.Sprintf("%.3f", float64(r.realized)/float64(cold))
		}
		t.AddRow(scenario, r.name, costStr(r.plan.EstimatedCost), costStr(r.realized), r.plan.Evals,
			fmt.Sprintf("%.0f", float64(r.took.Nanoseconds())/1e3), ratio)
	}
}

// rsSelector deliberately violates the SR (sorted-then-random) rule of
// Lemma 1: it probes first whenever a probe is available and falls back to
// sorted access only when it must. E8 uses it to quantify what the SR
// space reduction preserves.
type rsSelector struct{}

func (rsSelector) Name() string { return "RS (random-first)" }

func (rsSelector) Choose(tab *state.Table, sess *access.Session, target int, choices []algo.Choice) algo.Choice {
	for _, ch := range choices {
		if ch.Kind == access.RandomAccess {
			return ch
		}
	}
	return choices[0]
}

// RunE8 runs the design-choice ablations of Section 7:
//
//	(a) the SR rule (Lemma 1): SR/G's best configuration against a
//	    random-first selector in a scenario with expensive probes;
//	(b) global probe scheduling: the optimizer's Omega against the reverse
//	    and the naive index order, in a probe-only scenario with
//	    heterogeneous predicate selectivities and costs;
//	(c) estimator samples: realized plan quality as the dummy-sample size
//	    grows, and with a real data sample of the same size.
func RunE8(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "E8",
		Title:  "ablations: SR rule, global schedule Omega, estimator samples",
		Header: []string{"ablation", "variant", "cost", "vs best"},
	}
	grid := 7
	if cfg.Quick {
		grid = 5
	}

	// (a) SR vs random-first under expensive probes, F = min.
	ds, err := data.Generate(data.Uniform, cfg.N, 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	scn := access.Uniform(2, 1, 10)
	srCost, _, err := runOptimized(opt.Config{Grid: grid, Seed: cfg.Seed}, ds, scn, score.Min(), cfg.K)
	if err != nil {
		return nil, err
	}
	rsCost, err := runAlgo(&algo.NC{Sel: rsSelector{}}, ds, scn, score.Min(), cfg.K)
	if err != nil {
		return nil, err
	}
	best := srCost
	if rsCost < best {
		best = rsCost
	}
	t.AddRow("(a) Select rule", "SR/G (optimized)", costStr(srCost), pct(srCost, best))
	t.AddRow("(a) Select rule", "random-first", costStr(rsCost), pct(rsCost, best))

	// (b) Omega quality in a probe-only scenario with heterogeneous
	// predicates: p1 selective but costly, p2 unselective and cheap, p3
	// selective and cheap.
	hets, err := heterogeneousDataset(cfg.N, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	probeScn := access.Scenario{Name: "probe-het", Preds: []access.PredCost{
		{Sorted: access.CostOf(0.1), SortedOK: true, Random: access.CostOf(8), RandomOK: true},
		{Sorted: 0, SortedOK: false, Random: access.CostOf(1), RandomOK: true},
		{Sorted: 0, SortedOK: false, Random: access.CostOf(2), RandomOK: true},
	}}
	hetSample, err := realSample(hets, 50, cfg.Seed)
	if err != nil {
		return nil, err
	}
	goodOmega := opt.OptimizeOmega(hetSample, probeScn)
	badOmega := reversed(goodOmega)
	indexOmega := []int{0, 1, 2}
	h := []float64{0, 1, 1} // MPro-style: drain the retrieval list as needed
	variants := []struct {
		name  string
		omega []int
	}{
		{"optimized Omega " + fmt.Sprint(goodOmega), goodOmega},
		{"index order " + fmt.Sprint(indexOmega), indexOmega},
		{"reversed " + fmt.Sprint(badOmega), badOmega},
	}
	bestB := access.Cost(-1)
	costsB := make([]access.Cost, len(variants))
	for i, v := range variants {
		c, err := runNC(h, v.omega, hets, probeScn, score.Min(), cfg.K)
		if err != nil {
			return nil, err
		}
		costsB[i] = c
		if bestB < 0 || c < bestB {
			bestB = c
		}
	}
	for i, v := range variants {
		t.AddRow("(b) Omega", v.name, costStr(costsB[i]), pct(costsB[i], bestB))
	}

	// (c) Sample size and provenance: plan realized cost for growing dummy
	// samples, plus a real sample (Section 7.3's two sources of samples).
	sizes := []int{10, 25, 50, 100}
	if cfg.Quick {
		sizes = []int{10, 25, 50}
	}
	var cCosts []access.Cost
	var cNames []string
	for _, s := range sizes {
		c, _, err := runOptimized(opt.Config{Grid: grid, Seed: cfg.Seed, SampleSize: s}, ds, scn, score.Min(), cfg.K)
		if err != nil {
			return nil, err
		}
		cNames = append(cNames, fmt.Sprintf("dummy sample, s=%d", s))
		cCosts = append(cCosts, c)
	}
	hists, err := stats.Collect(ds, 16)
	if err != nil {
		return nil, err
	}
	histSample, err := stats.SynthesizeSample(hists, 50, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c, _, err := runOptimized(opt.Config{Grid: grid, Seed: cfg.Seed, Sample: histSample}, ds, scn, score.Min(), cfg.K)
	if err != nil {
		return nil, err
	}
	cNames = append(cNames, "histogram sample, s=50")
	cCosts = append(cCosts, c)
	sampled, err := realSample(ds, 50, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c, _, err = runOptimized(opt.Config{Grid: grid, Seed: cfg.Seed, Sample: sampled}, ds, scn, score.Min(), cfg.K)
	if err != nil {
		return nil, err
	}
	cNames = append(cNames, "real sample, s=50")
	cCosts = append(cCosts, c)
	bestC := cCosts[0]
	for _, x := range cCosts[1:] {
		if x < bestC {
			bestC = x
		}
	}
	for i := range cCosts {
		t.AddRow("(c) samples", cNames[i], costStr(cCosts[i]), pct(cCosts[i], bestC))
	}

	t.Notes = append(t.Notes,
		"expected shape: (a) SR/G well below random-first when probes are expensive;",
		"(b) optimized Omega is the cheapest schedule; (c) plan quality stabilizes with modest samples, real samples help but dummy ones already adapt to F, k, and costs",
		"paper artifact: Section 7 design choices (Lemma 1, global scheduling, Section 7.3 samples)")
	return t, nil
}

// heterogeneousDataset builds three predicates with distinct score
// distributions (selectivities): p1 skewed low, p2 mid-uniform, p3 skewed
// high, so probe schedules genuinely differ in value.
func heterogeneousDataset(n int, seed int64) (*data.Dataset, error) {
	base, err := data.Generate(data.Uniform, n, 3, seed)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, 0, 3*n)
	for u := 0; u < n; u++ {
		p1, p2, p3 := base.Score(u, 0), base.Score(u, 1), base.Score(u, 2)
		scores = append(scores,
			p1*p1*p1,           // mean .25: selective
			p2,                 // mean .5
			1-(1-p3)*(1-p3)/2.) // mean ~.83: unselective
	}
	return data.FromSlab(fmt.Sprintf("heterogeneous(n=%d,seed=%d)", n, seed), 3, scores)
}

func reversed(xs []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}
