package topk

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/opt"
)

// TestPooledRunsMatchFreshEngine hammers one engine with repeated and
// varied queries (so its session/scratch pool is actually recycled) and
// checks every answer and ledger is byte-identical to a fresh engine's.
func TestPooledRunsMatchFreshEngine(t *testing.T) {
	ds := mustGenerateDataset(t, "correlated", 400, 2, 17)
	scn := UniformScenario(2, 1, 5)
	hot, err := NewEngine(DataBackend(ds), scn)
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		q    Query
		opts []RunOption
	}{
		{Query{F: Avg(), K: 5}, []RunOption{WithNC([]float64{0.5, 0.5}, nil)}},
		{Query{F: Avg(), K: 5}, []RunOption{WithNC([]float64{0.5, 0.5}, nil)}},
		{Query{F: Min(), K: 3}, []RunOption{WithNC([]float64{0.8, 0.2}, nil)}},
		{Query{F: Avg(), K: 10}, nil}, // optimizer path
		{Query{F: Avg(), K: 2}, []RunOption{WithAlgorithm("TA")}},
		{Query{F: Avg(), K: 2}, []RunOption{WithAlgorithm("NRA")}},
		{Query{F: Avg(), K: 5}, []RunOption{WithBudget(4), WithNC([]float64{0.5, 0.5}, nil)}},
	}
	for round := 0; round < 3; round++ {
		for i, tc := range queries {
			got, err := hot.Run(tc.q, tc.opts...)
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
			cold, err := NewEngine(DataBackend(ds), scn)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Run(tc.q, tc.opts...)
			if err != nil {
				t.Fatalf("round %d query %d (fresh): %v", round, i, err)
			}
			if !reflect.DeepEqual(got.Items, want.Items) {
				t.Errorf("round %d query %d: pooled items %+v, fresh %+v", round, i, got.Items, want.Items)
			}
			if !reflect.DeepEqual(got.Ledger, want.Ledger) {
				t.Errorf("round %d query %d: pooled ledger %+v, fresh %+v", round, i, got.Ledger, want.Ledger)
			}
			if got.Truncated != want.Truncated {
				t.Errorf("round %d query %d: truncated %v vs %v", round, i, got.Truncated, want.Truncated)
			}
		}
	}
}

// TestPooledRunsConcurrent exercises the pool under parallel Runs with the
// race detector; every answer must equal the oracle.
func TestPooledRunsConcurrent(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 300, 2, 23)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := TopKOracle(ds, Avg(), 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ans, err := eng.Run(Query{F: Avg(), K: 5}, WithNC([]float64{0.5, 0.5}, nil))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(ans.Items, want) {
					t.Errorf("concurrent pooled run diverged: %+v vs %+v", ans.Items, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEnginePlanCache checks WithPlanCache: the second identical Run
// reuses the first's plan (one miss, then hits), answers are unchanged,
// and a second engine sharing the cache also hits.
func TestEnginePlanCache(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 300, 2, 7)
	scn := UniformScenario(2, 1, 5)
	cache := NewPlanCache(16)
	eng, err := NewEngine(DataBackend(ds), scn, WithPlanCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	cfg := OptimizerConfig{Grid: 5, SampleSize: 20, Restarts: 2}
	first, err := eng.Run(Query{F: Avg(), K: 5}, WithOptimizer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(Query{F: Avg(), K: 5}, WithOptimizer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss / 1 hit", st)
	}
	if !reflect.DeepEqual(first.Items, second.Items) || !reflect.DeepEqual(first.Plan, second.Plan) {
		t.Errorf("cached plan changed the answer: %+v vs %+v", first, second)
	}
	if !reflect.DeepEqual(first.Items, TopKOracle(ds, Avg(), 5)) {
		t.Errorf("answer diverges from oracle: %+v", first.Items)
	}

	other, err := NewEngine(DataBackend(ds), scn, WithPlanCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run(Query{F: Avg(), K: 5}, WithOptimizer(cfg)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 2 {
		t.Errorf("shared cache should hit across engines, stats = %+v", st)
	}
	// A different k is a different planning problem.
	if _, err := eng.Run(Query{F: Avg(), K: 6}, WithOptimizer(cfg)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Errorf("changed k should miss, stats = %+v", st)
	}
}

// TestWarmPlannedRunsAreExact: over the Figure-2 cells, one engine with a
// plan cache answers a user whose weighted sum drifts 0.001 a query. Every
// answer is the oracle's, the trace reports a warm-started plan from the
// second query on, and a fresh engine running the same plan fixed with
// WithNC bills the same ledger: a warm start moves only which plan runs.
func TestWarmPlannedRunsAreExact(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 400, 3, 11)
	for _, cell := range figure2Cells(3, 10) {
		t.Run(cell.name, func(t *testing.T) {
			eng, err := NewEngine(DataBackend(ds), cell.scn, WithPlanCache(NewPlanCache(0)))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewEngine(DataBackend(ds), cell.scn)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				f := Weighted(0.3+0.001*float64(i), 0.25, 0.45)
				ans, err := eng.Run(Query{F: f, K: 10}, WithTrace())
				if err != nil {
					t.Fatal(err)
				}
				assertExactTopK(t, ds, f, 10, ans)
				checkConservation(t, fmt.Sprintf("query %d", i), ans)
				want := opt.SourceWarm
				if i == 0 {
					want = opt.SourceCold
				}
				if ans.Plan.Source != want || ans.Trace.PlanSource != want.String() {
					t.Fatalf("query %d: plan source %v, trace %q, want %v", i, ans.Plan.Source, ans.Trace.PlanSource, want)
				}
				fixed, err := fresh.Run(Query{F: f, K: 10}, WithNC(ans.Plan.H, ans.Plan.Omega))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fixed.Ledger, ans.Ledger) || !reflect.DeepEqual(fixed.Items, ans.Items) {
					t.Errorf("query %d: WithNC%v%v billed %+v, the warm-planned run %+v", i, ans.Plan.H, ans.Plan.Omega, fixed.Ledger, ans.Ledger)
				}
			}
		})
	}
}
