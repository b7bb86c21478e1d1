package bench

import (
	"fmt"

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
// scheme picks) and the optimization overhead (number of simulation runs)
// of Naive, Strategies, and HClimb. Expected shape: all three land on
// similar-quality plans; Naive pays by far the most evaluations, HClimb is
// the best quality-per-overhead trade (the paper adopts it).
func RunE6(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "E6",
		Title:  "optimization schemes: plan quality vs search overhead",
		Header: []string{"scenario", "scheme", "estimated cost", "realized cost", "estimator runs"},
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
	for _, sc := range scns {
		ds, err := data.Generate(data.Uniform, cfg.N, 2, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, scheme := range []opt.Scheme{opt.SchemeNaive, opt.SchemeStrategies, opt.SchemeHClimb} {
			ocfg := opt.Config{Scheme: scheme, Grid: grid, Seed: cfg.Seed}
			plan, err := opt.Optimize(ocfg, sc.scn, sc.f, cfg.K, ds.N())
			if err != nil {
				return nil, err
			}
			realized, err := runNC(plan.H, plan.Omega, ds, sc.scn, sc.f, cfg.K)
			if err != nil {
				return nil, err
			}
			t.AddRow(sc.name, scheme.String(), costStr(plan.EstimatedCost), costStr(realized), plan.Evals)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: comparable realized costs; HClimb and Strategies use far fewer estimator runs than Naive",
		"paper artifact: appendix scheme comparison (HClimb adopted for Section 9)")
	return t, nil
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
	hetSample, err := data.Sample(hets, 50, cfg.Seed)
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
	realSample, err := data.Sample(ds, 50, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c, _, err = runOptimized(opt.Config{Grid: grid, Seed: cfg.Seed, Sample: realSample}, ds, scn, score.Min(), cfg.K)
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
	rows := make([][]float64, n)
	for u := 0; u < n; u++ {
		r := base.Scores(u)
		rows[u] = []float64{
			r[0] * r[0] * r[0],       // mean .25: selective
			r[1],                     // mean .5
			1 - (1-r[2])*(1-r[2])/2., // mean ~.83: unselective
		}
	}
	return data.New(fmt.Sprintf("heterogeneous(n=%d,seed=%d)", n, seed), rows)
}

func reversed(xs []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}
