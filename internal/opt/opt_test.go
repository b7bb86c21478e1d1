package opt

import (
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

func testEstimator(t *testing.T, f score.Func, scn access.Scenario, k, n int) *Estimator {
	t.Helper()
	sample := datatest.MustDummySample(40, scn.M(), 7)
	e, err := NewEstimator(sample, scn, f, k, n, true)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimatorBasics(t *testing.T) {
	e := testEstimator(t, score.Avg(), access.Uniform(2, 1, 1), 10, 400)
	// k' = round(10 * 40/400) = 1.
	if e.KPrime() != 1 {
		t.Errorf("k' = %d, want 1", e.KPrime())
	}
	c1, err := e.Estimate([]float64{0.5, 0.5}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 {
		t.Errorf("estimate = %v, want positive", c1)
	}
	if e.Evals() != 1 {
		t.Errorf("evals = %d", e.Evals())
	}
	// Memoization: same config costs no extra eval.
	c2, err := e.Estimate([]float64{0.5, 0.5}, []int{0, 1})
	if err != nil || c2 != c1 {
		t.Errorf("cached estimate mismatch: %v vs %v (%v)", c2, c1, err)
	}
	if e.Evals() != 1 {
		t.Errorf("cache miss on identical config: evals = %d", e.Evals())
	}
}

func TestEstimatorValidation(t *testing.T) {
	sample := datatest.MustDummySample(10, 2, 1)
	if _, err := NewEstimator(sample, access.Uniform(3, 1, 1), score.Avg(), 5, 100, true); err == nil {
		t.Error("scenario arity mismatch should fail")
	}
	if _, err := NewEstimator(sample, access.Uniform(2, 1, 1), score.Avg(), 0, 100, true); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewEstimator(sample, access.Uniform(2, 1, 1), score.Weighted(1, 2, 3), 5, 100, true); err == nil {
		t.Error("function arity mismatch should fail")
	}
}

func TestKPrimeClamps(t *testing.T) {
	sample := datatest.MustDummySample(10, 2, 1)
	e, err := NewEstimator(sample, access.Uniform(2, 1, 1), score.Avg(), 500, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if e.KPrime() != 10 {
		t.Errorf("k' = %d, want clamp to sample size 10", e.KPrime())
	}
}

func TestOptimizeOmegaOrdersByGainPerCost(t *testing.T) {
	// Predicate 0: high mean (low gain), cheap. Predicate 1: low mean
	// (high gain), same cost -> 1 first.
	sample := datatest.MustNew("s", [][]float64{
		{0.9, 0.1},
		{0.95, 0.2},
		{0.85, 0.15},
	})
	scn := access.Uniform(2, 1, 1)
	omega := OptimizeOmega(sample, scn)
	if omega[0] != 1 || omega[1] != 0 {
		t.Errorf("omega = %v, want [1 0]", omega)
	}
	// Make predicate 1's probe 100x more expensive: order flips.
	scn.Preds[1].Random = 100 * access.UnitCost
	omega = OptimizeOmega(sample, scn)
	if omega[0] != 0 {
		t.Errorf("omega = %v, want predicate 0 first when 1 is costly", omega)
	}
	// Probe-impossible predicates go last.
	scn.Preds[0].RandomOK = false
	omega = OptimizeOmega(sample, scn)
	if omega[len(omega)-1] != 0 {
		t.Errorf("omega = %v, want probe-impossible predicate last", omega)
	}
}

func TestNaiveFindsGridMinimum(t *testing.T) {
	e := testEstimator(t, score.Min(), access.Uniform(2, 1, 1), 5, 200)
	plan, err := Naive(e, []int{0, 1}, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.H) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	// Naive is exhaustive: no grid point may beat its pick.
	vs := gridValues(5)
	for _, a := range vs {
		for _, b := range vs {
			c, err := e.Estimate([]float64{a, b}, []int{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			if c < plan.EstimatedCost {
				t.Errorf("grid point (%g,%g)=%v beats Naive's %v", a, b, c, plan.EstimatedCost)
			}
		}
	}
	if plan.Evals != 25 {
		t.Errorf("evals = %d, want 25", plan.Evals)
	}
}

func TestNaiveBudget(t *testing.T) {
	e := testEstimator(t, score.Avg(), access.Uniform(3, 1, 1), 5, 200)
	if _, err := Naive(e, []int{0, 1, 2}, 11, 100); err == nil {
		t.Error("11^3 mesh should exceed a 100-eval budget")
	}
}

func TestHClimbNeverWorseThanItsStarts(t *testing.T) {
	for _, f := range []score.Func{score.Min(), score.Avg()} {
		e := testEstimator(t, f, access.Uniform(2, 1, 10), 5, 200)
		plan, err := HClimb(e, []int{0, 1}, 11, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		// The midpoint anchor is always a start; HClimb must do at least
		// as well as it.
		mid, err := e.Estimate([]float64{0.5, 0.5}, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if plan.EstimatedCost > mid {
			t.Errorf("%s: HClimb %v worse than its own start %v", f.Name(), plan.EstimatedCost, mid)
		}
	}
}

func TestHClimbReachesNaiveQualityOnSmallGrid(t *testing.T) {
	eN := testEstimator(t, score.Min(), access.MatrixCell(2, access.Cheap, access.Expensive, 10), 5, 200)
	naive, err := Naive(eN, []int{0, 1}, 7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	eH := testEstimator(t, score.Min(), access.MatrixCell(2, access.Cheap, access.Expensive, 10), 5, 200)
	climb, err := HClimb(eH, []int{0, 1}, 7, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-start climbing on a small 2-D grid should land within 25% of
	// the exhaustive optimum while spending fewer evaluations.
	if float64(climb.EstimatedCost) > 1.25*float64(naive.EstimatedCost) {
		t.Errorf("HClimb %v vs Naive %v: quality gap too large", climb.EstimatedCost, naive.EstimatedCost)
	}
	if climb.Evals >= naive.Evals {
		t.Errorf("HClimb used %d evals, Naive %d: no overhead saving", climb.Evals, naive.Evals)
	}
}

func TestStrategiesMatchesShape(t *testing.T) {
	// For min, Strategies must consider focused configurations and pick
	// one at least as good as the best equal-depth one.
	e := testEstimator(t, score.Min(), access.Uniform(2, 1, 1), 5, 200)
	plan, err := Strategies(e, score.Min(), []int{0, 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	bestDiag := access.Cost(math.MaxInt64)
	for _, tv := range gridValues(6) {
		c, err := e.Estimate([]float64{tv, tv}, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if c < bestDiag {
			bestDiag = c
		}
	}
	if plan.EstimatedCost > bestDiag {
		t.Errorf("Strategies(min) %v worse than best diagonal %v", plan.EstimatedCost, bestDiag)
	}
	// Weighted functions get weight-proportional candidates without error.
	e2 := testEstimator(t, score.Weighted(0.8, 0.2), access.Uniform(2, 1, 1), 5, 200)
	if _, err := Strategies(e2, score.Weighted(0.8, 0.2), []int{0, 1}, 6); err != nil {
		t.Fatal(err)
	}
	// Max-like and other shapes are accepted too.
	e3 := testEstimator(t, score.Max(), access.Uniform(2, 1, 1), 5, 200)
	if _, err := Strategies(e3, score.Max(), []int{0, 1}, 6); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 300, 2, 11)
	for _, scheme := range []Scheme{SchemeHClimb, SchemeNaive, SchemeStrategies} {
		cfg := Config{Scheme: scheme, Grid: 6, Seed: 1}
		plan, err := Optimize(cfg, access.Uniform(2, 1, 5), score.Min(), 5, ds.N())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		// Execute the plan and verify correctness plus an estimated cost
		// that is at least in the right order of magnitude.
		sess, err := access.NewSession(access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 5))
		if err != nil {
			t.Fatal(err)
		}
		alg, err := algo.NewNC(plan.H, plan.Omega)
		if err != nil {
			t.Fatal(err)
		}
		prob, _ := algo.NewProblem(score.Min(), 5, sess)
		res, err := alg.Run(prob)
		if err != nil {
			t.Fatal(err)
		}
		oracle := ds.TopK(score.Min().Eval, 5)
		for i := range oracle {
			truth := score.Min().Eval(ds.Scores(res.Items[i].Obj))
			if math.Abs(truth-oracle[i].Score) > 1e-9 {
				t.Fatalf("%v: wrong answer at rank %d", scheme, i)
			}
		}
	}
}

func TestSchemeNames(t *testing.T) {
	for _, s := range []Scheme{SchemeHClimb, SchemeNaive, SchemeStrategies} {
		got, err := SchemeByName(s.String())
		if err != nil || got != s {
			t.Errorf("round-trip %v: %v, %v", s, got, err)
		}
	}
	if _, err := SchemeByName("x"); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestEstimatorDeterminism(t *testing.T) {
	mk := func() *Estimator {
		return testEstimator(t, score.Min(), access.Uniform(2, 1, 10), 10, 500)
	}
	a, b := mk(), mk()
	for _, h := range [][]float64{{0, 1}, {0.5, 0.5}, {1, 0.2}} {
		ca, err := a.Estimate(h, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.Estimate(h, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if ca != cb {
			t.Errorf("H=%v: estimates differ across identical estimators: %v vs %v", h, ca, cb)
		}
	}
}

func BenchmarkEstimate(b *testing.B) {
	sample := datatest.MustDummySample(50, 2, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := NewEstimator(sample, access.Uniform(2, 1, 10), score.Min(), 10, 1000, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Estimate([]float64{0.5, 0.5}, []int{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}
