package topk

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/access"
)

func exampleDataset(t *testing.T) *Dataset {
	t.Helper()
	return mustGenerateDataset(t, "uniform", 300, 2, 42)
}

func scoresMatchOracle(t *testing.T, ds *Dataset, f ScoreFunc, k int, items []Item) {
	t.Helper()
	oracle := TopKOracle(ds, f, k)
	if len(items) != len(oracle) {
		t.Fatalf("got %d items, oracle %d", len(items), len(oracle))
	}
	got := make([]float64, len(items))
	want := make([]float64, len(items))
	for i := range items {
		got[i] = f.Eval(ds.Scores(items[i].Obj))
		want[i] = oracle[i].Score
	}
	sort.Float64s(got)
	sort.Float64s(want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("score multiset mismatch: %v vs %v", got, want)
		}
	}
}

func TestEngineDefaultPipeline(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Min(), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 5, ans.Items)
	if ans.Plan == nil {
		t.Error("default pipeline should record the optimizer's plan")
	}
	if ans.TotalCost() <= 0 {
		t.Error("no cost accrued")
	}
}

func TestEngineIsReusable(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := eng.Run(Query{F: Avg(), K: 3}, WithNC([]float64{0.5, 0.5}, nil))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := eng.Run(Query{F: Avg(), K: 3}, WithNC([]float64{0.5, 0.5}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if a1.TotalCost() != a2.TotalCost() {
		t.Error("identical runs on a reusable engine must cost the same")
	}
}

func TestEngineNamedBaselines(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"FA", "TA", "CA", "NRA", "Quick-Combine", "Stream-Combine"} {
		f := Avg()
		ans, err := eng.Run(Query{F: f, K: 5}, WithAlgorithm(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scoresMatchOracle(t, ds, f, 5, ans.Items)
	}
	if _, err := eng.Run(Query{F: Avg(), K: 5}, WithAlgorithm("nope")); err == nil {
		t.Error("unknown algorithm name should fail at Run")
	}
}

func TestEngineFixedNC(t *testing.T) {
	ds := exampleDataset(t)
	eng, _ := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	ans, err := eng.Run(Query{F: Min(), K: 4}, WithNC([]float64{0.3, 1}, []int{1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 4, ans.Items)
	if ans.Plan != nil {
		t.Error("fixed NC run should not invoke the optimizer")
	}
}

func TestEngineParallel(t *testing.T) {
	ds := exampleDataset(t)
	eng, _ := NewEngine(DataBackend(ds), UniformScenario(2, 1, 5))
	ans, err := eng.Run(Query{F: Min(), K: 5}, WithParallel(4))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 5, ans.Items)
	if ans.Elapsed <= 0 || ans.Elapsed > ans.TotalCost().Units()+1e-9 {
		t.Errorf("elapsed %g vs cost %g", ans.Elapsed, ans.TotalCost().Units())
	}
	// Parallel with a fixed configuration too.
	ans2, err := eng.Run(Query{F: Min(), K: 5}, WithParallel(4), WithNC([]float64{0.4, 0.4}, nil))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 5, ans2.Items)
}

func TestEngineAdaptiveWithShifts(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1),
		WithCostShifts(CostShift{AfterAccesses: 20, Pred: 0, RandomFactor: 30},
			CostShift{AfterAccesses: 20, Pred: 1, RandomFactor: 30}))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Avg(), K: 5}, WithAdaptive(10))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Avg(), 5, ans.Items)
}

func TestEngineValidation(t *testing.T) {
	ds := exampleDataset(t)
	if _, err := NewEngine(nil, UniformScenario(2, 1, 1)); err == nil {
		t.Error("nil backend should fail")
	}
	if _, err := NewEngine(DataBackend(ds), UniformScenario(3, 1, 1)); err == nil {
		t.Error("scenario arity mismatch should fail")
	}
	eng, _ := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if _, err := eng.Run(Query{F: Min(), K: 0}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := eng.Run(Query{F: Min(), K: 2}, WithNC([]float64{2, 2}, nil)); err == nil {
		t.Error("invalid depths should fail")
	}
}

func TestWithoutNoWildGuessesOption(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1), WithoutNoWildGuesses())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Min(), K: 3}, WithNC([]float64{1, 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 3, ans.Items)
}

func TestScoreByNameReexport(t *testing.T) {
	f, err := ScoreByName("geomean")
	if err != nil || f.Name() != "geomean" {
		t.Errorf("ScoreByName = %v, %v", f, err)
	}
}

func TestCostHelpers(t *testing.T) {
	if CostOf(2) != 2*access.UnitCost {
		t.Error("CostOf mismatch")
	}
	if c, err := CostFromUnits(1.5); err != nil || c != CostOf(1.5) {
		t.Errorf("CostFromUnits(1.5) = %v, %v", c, err)
	}
	if _, err := CostFromUnits(-1); err == nil {
		t.Error("negative units should be rejected")
	}
	if ds := mustGenerateDataset(t, "uniform", 10, 2, 1); ds.N() != 10 {
		t.Error("GenerateDataset mismatch")
	}
	if _, err := GenerateDataset("bogus", 10, 2, 1); err == nil {
		t.Error("bogus distribution should fail")
	}
}

func TestOracleOrder(t *testing.T) {
	ds := exampleDataset(t)
	items := TopKOracle(ds, Avg(), 10)
	for i := 1; i < len(items); i++ {
		if items[i].Score > items[i-1].Score {
			t.Fatal("oracle not sorted")
		}
	}
}

func TestEngineProbeOnlyBaselines(t *testing.T) {
	ds := exampleDataset(t)
	scn := Scenario{Name: "probe", Preds: []PredCost{
		{Sorted: CostOf(1), SortedOK: true, Random: CostOf(5), RandomOK: true},
		{Random: CostOf(5), RandomOK: true},
	}}
	eng, err := NewEngine(DataBackend(ds), scn)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MPro", "Upper"} {
		ans, err := eng.Run(Query{F: Min(), K: 5}, WithAlgorithm(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scoresMatchOracle(t, ds, Min(), 5, ans.Items)
	}
	// SR-Combine in its home cell (both access kinds, probes expensive).
	eng2, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng2.Run(Query{F: Avg(), K: 5}, WithAlgorithm("SR-Combine"))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Avg(), 5, ans.Items)
}

func TestEngineBudgetThroughFacade(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Avg(), K: 5}, WithNC([]float64{0.5, 0.5}, nil), WithBudget(15))
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Truncated || ans.TotalCost().Units() > 15 {
		t.Errorf("budgeted answer = truncated=%v cost=%v", ans.Truncated, ans.TotalCost())
	}
	if len(ans.Items) != 5 {
		t.Errorf("anytime answer has %d items", len(ans.Items))
	}
	if _, err := eng.Run(Query{F: Avg(), K: 5}, WithBudget(-3)); err == nil {
		t.Error("negative budget should fail")
	}
}

func TestEngineMedianScoring(t *testing.T) {
	ds := mustGenerateDataset(t, "gaussian", 200, 3, 8)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Median(), K: 6})
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Median(), 6, ans.Items)
	ans2, err := eng.Run(Query{F: OrderStatistic(2), K: 6}, WithAlgorithm("TA"))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, OrderStatistic(2), 6, ans2.Items)
}

func TestRunWithContextCancellation(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(Query{F: Min(), K: 5}, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sequential run: err = %v, want context.Canceled", err)
	}
	if _, err := eng.Run(Query{F: Min(), K: 5}, WithContext(ctx), WithParallel(4)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled parallel run: err = %v, want context.Canceled", err)
	}
	if _, err := eng.Run(Query{F: Min(), K: 5}, WithContext(ctx), WithLive(4)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled live run: err = %v, want context.Canceled", err)
	}
	// The same options with a live context still answer.
	ans, err := eng.Run(Query{F: Min(), K: 5}, WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 5, ans.Items)
}
