package opt

import (
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// probeScenario builds an MPro-style setting with heterogeneous probe
// costs so schedules genuinely differ.
func probeScenario() access.Scenario {
	return access.Scenario{Name: "probe3", Preds: []access.PredCost{
		{Sorted: access.CostOf(0.1), SortedOK: true, Random: access.CostOf(4), RandomOK: true},
		{Sorted: 0, SortedOK: false, Random: access.CostOf(1), RandomOK: true},
		{Sorted: 0, SortedOK: false, Random: access.CostOf(2), RandomOK: true},
	}}
}

func TestGreedyOmegaNearExhaustive(t *testing.T) {
	// The greedy (MPro-style) schedule should be within a modest factor of
	// the exhaustive optimum on heterogeneous probe scenarios — the
	// empirical basis for adopting global greedy scheduling.
	for seed := int64(1); seed <= 4; seed++ {
		sample := datatest.MustGenerate(data.Skewed, 60, 3, seed)
		scn := probeScenario()
		e, err := NewEstimator(sample, scn, score.Min(), 5, 600, true)
		if err != nil {
			t.Fatal(err)
		}
		h := []float64{0, 1, 1}
		greedy := OptimizeOmega(sample, scn)
		gCost, err := e.Estimate(h, greedy)
		if err != nil {
			t.Fatal(err)
		}
		_, bestCost, err := OptimizeOmegaExhaustive(e, h)
		if err != nil {
			t.Fatal(err)
		}
		if gCost > bestCost*13/10 {
			t.Errorf("seed %d: greedy %v vs exhaustive optimum %v (> 30%% off)", seed, gCost, bestCost)
		}
		if bestCost > gCost {
			t.Errorf("seed %d: exhaustive %v cannot exceed greedy %v", seed, bestCost, gCost)
		}
	}
}

func TestOptimizeOmegaExhaustiveRefusesLargeM(t *testing.T) {
	sample := datatest.MustGenerate(data.Uniform, 10, 7, 1)
	e, err := NewEstimator(sample, access.Uniform(7, 1, 1), score.Min(), 2, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	h := make([]float64, 7)
	if _, _, err := OptimizeOmegaExhaustive(e, h); err == nil {
		t.Error("m=7 should be refused")
	}
}

func TestOptimizeOmegaExhaustiveCoversAllPermutations(t *testing.T) {
	sample := datatest.MustGenerate(data.Uniform, 20, 3, 2)
	scn := probeScenario()
	e, err := NewEstimator(sample, scn, score.Min(), 2, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	omega, cost, err := OptimizeOmegaExhaustive(e, []float64{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(omega) != 3 || cost <= 0 {
		t.Fatalf("omega=%v cost=%v", omega, cost)
	}
	// 3! = 6 distinct schedules must have been estimated.
	if e.Evals() != 6 {
		t.Errorf("evals = %d, want 6", e.Evals())
	}
	// Must be a permutation.
	seen := [3]bool{}
	for _, p := range omega {
		if p < 0 || p > 2 || seen[p] {
			t.Fatalf("not a permutation: %v", omega)
		}
		seen[p] = true
	}
}
