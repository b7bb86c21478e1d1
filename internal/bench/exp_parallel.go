package bench

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/score"
)

// RunE7 regenerates the parallelization study (Section 9.1.1): execute the
// cost-optimized plan under growing concurrency bounds B and report
// elapsed (simulated) time against total access cost. Expected shape:
// elapsed time falls steeply with B while total cost stays at (or near)
// the sequential plan's — bounded concurrency accelerates the plan without
// abusing source resources.
func RunE7(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "E7",
		Title:  "parallelization: elapsed time vs concurrency bound B",
		Header: []string{"B", "elapsed (s)", "total cost (s)", "speedup", "cost overhead"},
	}
	grid := 8
	if cfg.Quick {
		grid = 5
	}
	// Q1-style scenario: expensive probes dominate, so overlapping them
	// pays off the most.
	q1, _, err := data.Restaurants(cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	scn := access.Scenario{Name: "example1", Preds: []access.PredCost{
		{Sorted: access.CostOf(0.2), SortedOK: true, Random: access.CostOf(1.0), RandomOK: true},
		{Sorted: access.CostOf(0.1), SortedOK: true, Random: access.CostOf(0.5), RandomOK: true},
	}}
	k := cfg.K
	plan, err := opt.Optimize(opt.Config{Grid: grid, Seed: cfg.Seed}, scn, score.Min(), k, q1.Dataset.N())
	if err != nil {
		return nil, err
	}
	sel, err := algo.NewSRG(plan.H, plan.Omega)
	if err != nil {
		return nil, err
	}
	bounds := []int{1, 2, 4, 8, 16, 32}
	if cfg.Quick {
		bounds = []int{1, 2, 4, 8}
	}
	var base *parallel.Result
	for _, b := range bounds {
		sess, err := access.NewSession(access.DatasetBackend{DS: q1.Dataset}, scn)
		if err != nil {
			return nil, err
		}
		prob, err := algo.NewProblem(score.Min(), k, sess)
		if err != nil {
			return nil, err
		}
		res, err := (&parallel.Executor{B: b, Sel: sel}).Run(context.Background(), prob, nil)
		if err != nil {
			return nil, err
		}
		if base == nil {
			base = res
		}
		t.AddRow(b,
			fmt.Sprintf("%.1f", res.Elapsed),
			costStr(res.Cost()),
			fmt.Sprintf("%.2fx", base.Elapsed/res.Elapsed),
			pct(res.Cost(), base.Cost()))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("plan: H=%s Omega=%v (optimized for the sequential cost model)", hStr(plan.H), plan.Omega),
		"expected shape: speedup grows with B; cost overhead stays near 100% (only necessary tasks are serviced)",
		"paper artifact: Section 9.1.1")
	return t, nil
}
