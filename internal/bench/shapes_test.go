package bench

import (
	"testing"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/opt"
	"repro/internal/score"
)

// TestPaperShapesHold is the regression net for the scientific claims
// themselves (not just "experiments run"): at a moderate full-ish size it
// asserts the directional results every experiment's notes promise. If an
// algorithm or optimizer change silently degrades a headline result, this
// fails before EXPERIMENTS.md goes stale.
func TestPaperShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("shape regression needs full-size runs")
	}
	n, k, seed := 600, 10, int64(1)
	ds := datatest.MustGenerate(data.Uniform, n, 2, seed)
	grid := 7

	nc := func(scn access.Scenario, f score.Func) access.Cost {
		t.Helper()
		c, _, err := runOptimized(opt.Config{Grid: grid, Seed: seed}, ds, scn, f, k)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	baseline := func(alg algo.Algorithm, scn access.Scenario, f score.Func) access.Cost {
		t.Helper()
		c, err := runAlgo(alg, ds, scn, f, k)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// E2/E3: under min at symmetric costs, optimized NC clearly beats TA
	// (paper: ~30% savings; we consistently see >= 25%).
	uni := access.Uniform(2, 1, 1)
	if c, ta := nc(uni, score.Min()), baseline(algo.TA{}, uni, score.Min()); float64(c) > 0.75*float64(ta) {
		t.Errorf("min symmetric: NC %v vs TA %v — savings below 25%%", c, ta)
	}
	// E3: expensive probes blow TA up; NC stays near its sorted-only cost.
	exp := access.Uniform(2, 1, 10)
	if c, ta := nc(exp, score.Min()), baseline(algo.TA{}, exp, score.Min()); float64(c) > 0.3*float64(ta) {
		t.Errorf("min cr=10: NC %v vs TA %v — savings below 70%%", c, ta)
	}
	// E1: avg symmetric is near parity (NC within [70%, 105%] of TA).
	if c, ta := nc(uni, score.Avg()), baseline(algo.TA{}, uni, score.Avg()); float64(c) > 1.05*float64(ta) || float64(c) < 0.5*float64(ta) {
		t.Errorf("avg symmetric: NC %v vs TA %v — outside the parity band", c, ta)
	}
	// E4: NC at worst ~equal to CA in CA's home cell.
	caCell := access.MatrixCell(2, access.Cheap, access.Expensive, 10)
	if c, ca := nc(caCell, score.Avg()), baseline(algo.CA{}, caCell, score.Avg()); float64(c) > 1.05*float64(ca) {
		t.Errorf("CA cell: NC %v vs CA %v", c, ca)
	}
	// E10: adaptivity beats an oblivious baseline under a mid-query spike.
	shifts := []access.CostShift{
		{AfterAccesses: 40, Pred: 0, RandomFactor: 25},
		{AfterAccesses: 40, Pred: 1, RandomFactor: 25},
	}
	ac, _, err := runAdaptive(opt.Config{Grid: grid, Seed: seed}, ds, uni, score.Avg(), k, shifts)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := runAlgo(algo.TA{}, ds, uni, score.Avg(), k, access.WithShifts(shifts...))
	if err != nil {
		t.Fatal(err)
	}
	if float64(ac) > 0.5*float64(tc) {
		t.Errorf("adaptivity: adaptive %v vs TA %v — savings below 50%%", ac, tc)
	}
}

// TestVerifyShapeOnRealOutputs runs every experiment (quick mode for the
// non-percentage-sensitive ones would be noisy, so use default size for
// the checked ones) and feeds the result through VerifyShape.
func TestVerifyShapeOnRealOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiment runs")
	}
	cfg := Config{}
	for _, id := range []string{"E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tab, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := VerifyShape(tab); err != nil {
			t.Errorf("%s shape: %v", id, err)
		}
	}
}

func TestVerifyShapeCatchesViolations(t *testing.T) {
	bad := &Table{ID: "E9", Rows: [][]string{{"n", "250", "100.0", "150.0", "150%"}}}
	if err := VerifyShape(bad); err == nil {
		t.Error("E9 violation not caught")
	}
	bad = &Table{ID: "E3", Rows: [][]string{{"min", "1", "uniform", "100.0", "120.0", "120%"}}}
	if err := VerifyShape(bad); err == nil {
		t.Error("E3 violation not caught")
	}
	bad = &Table{ID: "E11", Rows: [][]string{
		{"s", "0.00", "100.0", "100%", "0"},
		{"s", "0.50", "150.0", "150%", "0"},
	}}
	if err := VerifyShape(bad); err == nil {
		t.Error("E11 violation not caught")
	}
	// Unchecked experiments verify trivially.
	if err := VerifyShape(&Table{ID: "E1"}); err != nil {
		t.Errorf("E1 should verify trivially: %v", err)
	}
	// Garbage percentages surface as errors.
	bad = &Table{ID: "E9", Rows: [][]string{{"n", "250", "x", "y", "zonk"}}}
	if err := VerifyShape(bad); err == nil {
		t.Error("garbage row should fail")
	}
}

// TestVerifyShapeE6WarmStart: E6's drift rows fail the shape check when the
// warm start costs as many estimator runs as the cold search, or realizes a
// worse plan within the neighbour radius; beyond the radius a worse plan
// is expected.
func TestVerifyShapeE6WarmStart(t *testing.T) {
	rows := func(d string, warmRuns, warmCost string) *Table {
		scn := "S4: wsum sa-cheap/ra-cheap, d=" + d
		return &Table{ID: "E6", Rows: [][]string{
			{scn, "HClimb", "560.0", "876.0", "39", "480", "1.000"},
			{scn, "HClimb warm", "560.0", warmCost, warmRuns, "90", "-"},
			{scn, "Greedy", "120.0", "754.0", "0", "0", "0.861"},
		}}
	}
	for _, tc := range []struct {
		name string
		tab  *Table
		ok   bool
	}{
		{"warm matches cold", rows("0.001", "7", "876.0"), true},
		{"warm worse beyond the radius", rows("0.2", "7", "1000.0"), true},
		{"warm worse within the radius", rows("0.05", "7", "900.0"), false},
		{"warm as dear as cold", rows("0.001", "39", "876.0"), false},
	} {
		if err := VerifyShape(tc.tab); (err == nil) != tc.ok {
			t.Errorf("%s: VerifyShape = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
