package topk

import (
	"testing"
)

func TestEngineLiveRun(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Min(), K: 5}, WithLive(4))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 5, ans.Items)
	if ans.Wall <= 0 {
		t.Error("live run should report wall time")
	}
	if ans.Plan == nil {
		t.Error("live default pipeline should record the plan")
	}
	// With a fixed configuration, no plan is recorded.
	ans2, err := eng.Run(Query{F: Min(), K: 5}, WithLive(4), WithNC([]float64{0.5, 0.5}, nil))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 5, ans2.Items)
	if ans2.Plan != nil {
		t.Error("fixed-config live run should not optimize")
	}
}

// TestLiveBillsNearSequential: real concurrency must not buy speculation.
// Requests complete in whatever order the scheduler likes, and the executor
// still services only necessary tasks — each at most once at a time, until
// its result is applied — so the bill stays near the sequential plan's
// (the simulated executor's 100–104 against 99 here). The second executor
// freed a task when its request returned and billed 112–235.
func TestLiveBillsNearSequential(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{F: Avg(), K: 5}
	seq, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{2, 3, 8} {
		for i := 0; i < 20; i++ {
			ans, err := eng.Run(q, WithLive(b))
			if err != nil {
				t.Fatal(err)
			}
			assertExactTopK(t, ds, q.F, q.K, ans)
			if got, limit := ans.TotalCost().Units(), 1.15*seq.TotalCost().Units(); got > limit {
				t.Errorf("WithLive(%d) run %d billed %g, sequential plan %g", b, i, got, seq.TotalCost().Units())
			}
		}
	}
}

// TestExecutorBudgetTruncates: a tight budget under the executor answers
// Truncated within budget, as the same query does without it — it used to
// be an error under WithParallel and a rejected combination under WithLive.
func TestExecutorBudgetTruncates(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []RunOption
	}{{"sequential", nil}, {"parallel", []RunOption{WithParallel(3)}}, {"live", []RunOption{WithLive(3)}}} {
		ans, err := eng.Run(Query{F: Avg(), K: 5}, append(tc.opts, WithBudget(6))...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !ans.Truncated || len(ans.Items) != 5 {
			t.Errorf("%s: truncated=%v with %d items, want a best-effort answer of 5", tc.name, ans.Truncated, len(ans.Items))
		}
		if ans.TotalCost().Units() > 6 {
			t.Errorf("%s: billed %v on a budget of 6", tc.name, ans.TotalCost())
		}
	}
}

func TestEngineApproximation(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := eng.Run(Query{F: Avg(), K: 10}, WithNC([]float64{0, 0}, nil))
	if err != nil {
		t.Fatal(err)
	}
	approx, err := eng.Run(Query{F: Avg(), K: 10}, WithNC([]float64{0, 0}, nil), WithApproximation(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if approx.TotalCost() > exact.TotalCost() {
		t.Errorf("approximate cost %v exceeds exact %v", approx.TotalCost(), exact.TotalCost())
	}
	// Guarantee: (1+eps)*F(returned) >= F(anything else).
	returned := make(map[int]bool)
	worst := 2.0
	for _, it := range approx.Items {
		returned[it.Obj] = true
		if truth := Avg().Eval(ds.Scores(it.Obj)); truth < worst {
			worst = truth
		}
	}
	for u := 0; u < ds.N(); u++ {
		if returned[u] {
			continue
		}
		if truth := Avg().Eval(ds.Scores(u)); 1.3*worst < truth-1e-9 {
			t.Fatalf("approximation guarantee violated: %g vs %g", worst, truth)
		}
	}
	// Validation.
	if _, err := eng.Run(Query{F: Avg(), K: 2}, WithApproximation(-1)); err == nil {
		t.Error("negative epsilon should fail")
	}
}

func TestEngineExplain(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Explain(Query{F: Min(), K: 5}, OptimizerConfig{Grid: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.H) != 2 || plan.EstimatedCost <= 0 || plan.Evals == 0 {
		t.Fatalf("plan = %+v", plan)
	}
	// Explain must not touch the sources: executing the explained plan
	// afterwards costs exactly what a fresh run does.
	a, err := eng.Run(Query{F: Min(), K: 5}, WithNC(plan.H, plan.Omega))
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(Query{F: Min(), K: 5}, WithNC(plan.H, plan.Omega))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost() != b.TotalCost() {
		t.Error("Explain leaked state into the engine")
	}
	if _, err := eng.Explain(Query{F: Min(), K: 0}, OptimizerConfig{}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := eng.Explain(Query{F: Weighted(1, 2, 3), K: 2}, OptimizerConfig{}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestEngineOpenCursor(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := eng.Open(Query{F: Min(), K: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, err := cur.Next(4)
	if err != nil || len(first.Items) != 4 {
		t.Fatalf("first page: %v %v", first, err)
	}
	more, err := cur.Next(4)
	if err != nil || len(more.Items) != 4 {
		t.Fatalf("second page: %v %v", more, err)
	}
	scoresMatchOracle(t, ds, Min(), 8, append(append([]Item(nil), first.Items...), more.Items...))
	if cur.Cost() <= 0 || cur.Ledger().TotalAccesses() == 0 {
		t.Error("cursor accounting empty")
	}
	if cur.Plan() == nil || first.Plan == nil {
		t.Error("optimizer-planned cursor should expose its plan")
	}
	if cur.Emitted() != 8 {
		t.Errorf("Emitted = %d, want 8", cur.Emitted())
	}
	// TA is resumable through the facade.
	ta, err := eng.Open(Query{F: Min(), K: 2}, WithAlgorithm("TA"))
	if err != nil {
		t.Fatalf("cursor + TA should work: %v", err)
	}
	if page, err := ta.Next(2); err != nil || len(page.Items) != 2 {
		t.Fatalf("TA cursor page: %v %v", page, err)
	}
	if _, err := ta.NextUntil(0.5); err == nil {
		t.Error("TA cursor should refuse score-range paging")
	}
	ta.Close()
	// Adaptive cursors are supported: the divergence monitor attaches to
	// the suspended execution and re-plans between checkpoints.
	if adc, err := eng.Open(Query{F: Min(), K: 2}, WithAdaptive(5)); err != nil {
		t.Errorf("cursor + adaptive should work: %v", err)
	} else {
		if page, err := adc.Next(2); err != nil || len(page.Items) != 2 {
			t.Errorf("adaptive cursor page: %v %v", page, err)
		}
		adc.Close()
	}
	if _, err := eng.Open(Query{F: Min(), K: 2}, WithBudget(-1)); err == nil {
		t.Error("cursor + bad budget should fail")
	}
	// Cursor with a fixed configuration and approximation.
	cur2, err := eng.Open(Query{F: Avg(), K: 5}, WithNC([]float64{0.5, 0.5}, nil), WithApproximation(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur2.Next(5); err != nil {
		t.Fatal(err)
	}
	cur2.Close()
	if _, err := cur2.Next(1); err == nil {
		t.Error("page after Close should fail")
	}
	if err := cur2.Close(); err != nil {
		t.Errorf("Close should be idempotent, got %v", err)
	}
}
