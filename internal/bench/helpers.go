package bench

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/score"
)

// realSample draws s of ds's rows for the optimizer's estimator: the real
// distribution, as a deployment that keeps statistics would plan on.
func realSample(ds *data.Dataset, s int, seed int64) (*data.Dataset, error) {
	return access.Sample(context.Background(), access.DatasetBackend{DS: ds}, s, seed, fmt.Sprintf("%s/sample(%d,seed=%d)", ds.Name(), s, seed))
}

// runAlgo executes one algorithm on a fresh session and returns its total
// access cost.
func runAlgo(alg algo.Algorithm, ds *data.Dataset, scn access.Scenario, f score.Func, k int, opts ...access.Option) (access.Cost, error) {
	sess, err := access.NewSession(access.DatasetBackend{DS: ds}, scn, opts...)
	if err != nil {
		return 0, err
	}
	prob, err := algo.NewProblem(f, k, sess)
	if err != nil {
		return 0, err
	}
	res, err := alg.Run(prob)
	if err != nil {
		return 0, err
	}
	return res.Cost(), nil
}

// runNC executes Framework NC with a fixed SR/G configuration.
func runNC(h []float64, omega []int, ds *data.Dataset, scn access.Scenario, f score.Func, k int, opts ...access.Option) (access.Cost, error) {
	alg, err := algo.NewNC(h, omega)
	if err != nil {
		return 0, err
	}
	return runAlgo(alg, ds, scn, f, k, opts...)
}

// runOptimized optimizes (HClimb by default) and executes the chosen plan,
// returning the realized cost and the plan.
func runOptimized(cfg opt.Config, ds *data.Dataset, scn access.Scenario, f score.Func, k int, opts ...access.Option) (access.Cost, opt.Plan, error) {
	plan, err := opt.Optimize(cfg, scn, f, k, ds.N())
	if err != nil {
		return 0, opt.Plan{}, err
	}
	cost, err := runNC(plan.H, plan.Omega, ds, scn, f, k, opts...)
	if err != nil {
		return 0, opt.Plan{}, err
	}
	return cost, plan, nil
}

// runAdaptive runs the optimized plan through the facade with
// WithAdaptive(10) under mid-query cost shifts, returning the realized cost
// and how many times the query re-planned.
func runAdaptive(cfg opt.Config, ds *data.Dataset, scn access.Scenario, f score.Func, k int, shifts []access.CostShift) (access.Cost, int, error) {
	eng, err := topk.NewEngine(topk.DataBackend(ds), scn, topk.WithCostShifts(shifts...))
	if err != nil {
		return 0, 0, err
	}
	ans, err := eng.Run(topk.Query{F: f, K: k}, topk.WithOptimizer(cfg), topk.WithAdaptive(10), topk.WithTrace())
	if err != nil {
		return 0, 0, err
	}
	return ans.TotalCost(), len(ans.Trace.AdaptiveReplans), nil
}

// pct formats b as a percentage of a (a = 100%).
func pct(b, a access.Cost) string {
	if a == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(b)/float64(a))
}

// costStr prints a cost in units.
func costStr(c access.Cost) string { return fmt.Sprintf("%.1f", c.Units()) }

// hStr prints a depth vector compactly.
func hStr(h []float64) string {
	s := "("
	for i, x := range h {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%.2f", x)
	}
	return s + ")"
}

// taEquivalentDepth reports the sorted depth (in score space) that TA
// reached on each predicate in a reference run, locating TA inside the H
// space the way Figure 11 marks it with an oval.
func taEquivalentDepth(ds *data.Dataset, scn access.Scenario, f score.Func, k int) ([]float64, access.Cost, error) {
	sess, err := access.NewSession(access.DatasetBackend{DS: ds}, scn, access.WithTrace())
	if err != nil {
		return nil, 0, err
	}
	prob, err := algo.NewProblem(f, k, sess)
	if err != nil {
		return nil, 0, err
	}
	res, err := (algo.TA{}).Run(prob)
	if err != nil {
		return nil, 0, err
	}
	depth := make([]float64, ds.M())
	for i := range depth {
		depth[i] = 1
	}
	for _, rec := range sess.Trace() {
		if rec.Kind == access.SortedAccess {
			depth[rec.Pred] = rec.Score
		}
	}
	return depth, res.Cost(), nil
}
