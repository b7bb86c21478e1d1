package bench

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/score"
)

// RunE9 runs the sensitivity sweeps standard in the paper's family of
// evaluations: access cost of optimized NC against TA as the database size
// n, the retrieval size k, and the predicate count m grow. Expected shape:
// both costs grow sublinearly in n and roughly linearly in k; NC's
// advantage persists across the sweep (here under F = min, where focusing
// pays) and widens with m as TA's exhaustive probing multiplies.
func RunE9(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "E9",
		Title:  "scaling: cost vs n, k, m (F=min, cs=1, cr=5)",
		Header: []string{"sweep", "value", "TA cost", "NC cost", "NC/TA"},
	}
	grid := 7
	if cfg.Quick {
		grid = 5
	}
	run := func(sweep string, val string, n, k, m int, seed int64) error {
		ds, err := data.Generate(data.Uniform, n, m, seed)
		if err != nil {
			return err
		}
		scn := access.Uniform(m, 1, 5)
		taCost, err := runAlgo(algo.TA{}, ds, scn, score.Min(), k)
		if err != nil {
			return err
		}
		// Cap the mesh budget via HClimb regardless of m.
		ncCost, _, err := runOptimized(opt.Config{Grid: grid, Seed: seed, Restarts: 4}, ds, scn, score.Min(), k)
		if err != nil {
			return err
		}
		t.AddRow(sweep, val, costStr(taCost), costStr(ncCost), pct(ncCost, taCost))
		return nil
	}

	ns := []int{250, 500, 1000, 2000}
	ks := []int{1, 5, 10, 25, 50}
	ms := []int{2, 3, 4}
	if cfg.Quick {
		ns = []int{100, 200, 400}
		ks = []int{1, 5, 10}
		ms = []int{2, 3}
	}
	for _, n := range ns {
		if err := run("n", fmt.Sprint(n), n, cfg.K, 2, cfg.Seed); err != nil {
			return nil, err
		}
	}
	for _, k := range ks {
		if err := run("k", fmt.Sprint(k), cfg.N, k, 2, cfg.Seed); err != nil {
			return nil, err
		}
	}
	for _, m := range ms {
		if err := run("m", fmt.Sprint(m), cfg.N, cfg.K, m, cfg.Seed); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: NC/TA stays below 100% across all sweeps; the gap widens with m",
		"paper artifact: Section 9 sensitivity analysis")
	return t, nil
}

// RunE10 runs the adaptivity experiment motivated by Section 1's "the Web
// is dynamic" requirement: mid-query, both sources' random accesses become
// 25x more expensive (a load spike). We compare TA (oblivious), a static
// NC plan optimized for the initial costs, and adaptive NC, which re-plans
// against the costs in force. Expected shape: adaptive <= static < TA —
// re-planning shifts remaining work toward the still-cheap sorted
// accesses.
func RunE10(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "E10",
		Title:  "adaptivity: mid-query cost shift (random access 25x after a load spike)",
		Header: []string{"algorithm", "cost", "vs adaptive"},
	}
	grid := 7
	if cfg.Quick {
		grid = 5
	}
	ds, err := data.Generate(data.Uniform, cfg.N, 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Under avg with cheap probes, the optimized plan leans on random
	// accesses — which is exactly what the mid-query load spike punishes.
	scn := access.Uniform(2, 1, 1)
	shiftAt := 60
	if cfg.Quick {
		shiftAt = 15
	}
	shifts := []access.CostShift{
		{AfterAccesses: shiftAt, Pred: 0, RandomFactor: 25},
		{AfterAccesses: shiftAt, Pred: 1, RandomFactor: 25},
	}
	f := score.Avg()
	k := cfg.K

	runShifted := func(alg algo.Algorithm) (access.Cost, error) {
		return runAlgo(alg, ds, scn, f, k, access.WithShifts(shifts...))
	}

	// Static plan: optimized once against the *initial* scenario.
	plan, err := opt.Optimize(opt.Config{Grid: grid, Seed: cfg.Seed}, scn, f, k, ds.N())
	if err != nil {
		return nil, err
	}
	staticAlg, err := algo.NewNC(plan.H, plan.Omega)
	if err != nil {
		return nil, err
	}
	staticCost, err := runShifted(staticAlg)
	if err != nil {
		return nil, err
	}
	adaptiveCost, replans, err := runAdaptive(opt.Config{Grid: grid, Seed: cfg.Seed}, ds, scn, f, k, shifts)
	if err != nil {
		return nil, err
	}
	taCost, err := runShifted(algo.TA{})
	if err != nil {
		return nil, err
	}

	t.AddRow("NC-Adaptive", costStr(adaptiveCost), pct(adaptiveCost, adaptiveCost))
	t.AddRow(fmt.Sprintf("NC static H=%s", hStr(plan.H)), costStr(staticCost), pct(staticCost, adaptiveCost))
	t.AddRow("TA", costStr(taCost), pct(taCost, adaptiveCost))
	t.Notes = append(t.Notes,
		fmt.Sprintf("cost shift after %d accesses; adaptive re-planned %d time(s)", shiftAt, replans),
		"expected shape: adaptive <= static < TA once probes become expensive mid-query",
		"paper artifact: Section 1 adaptivity motivation / dynamic cost scenarios")
	return t, nil
}
