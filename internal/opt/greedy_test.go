package opt

import (
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

func TestQuantizeSlope(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {-1, 0}, {math.NaN(), 0},
		{1, 1}, {2, 2}, {4, 4},
		{1.3, math.Exp2(0.5)}, // rounds to the nearest half-step in log2
		{0.01, 0.125},         // clamped low
		{100, 8},              // clamped high
	}
	for _, c := range cases {
		if got := QuantizeSlope(c.in); got != c.want {
			t.Errorf("QuantizeSlope(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestQuantizeMean(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {-0.5, 0}, {math.NaN(), 0},
		{0.5, 0.5}, {0.52, 0.5}, {0.1, 0.125},
		{0.001, 1.0 / 16}, {0.999, 15.0 / 16},
	}
	for _, c := range cases {
		if got := QuantizeMean(c.in); got != c.want {
			t.Errorf("QuantizeMean(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestObservedExponent(t *testing.T) {
	if c := (*ObservedStats)(nil).Exponent(0); c != 1 {
		t.Errorf("nil stats exponent = %g, want 1 (uniform)", c)
	}
	o := &ObservedStats{Slopes: []float64{2, 0}, ProbeMeans: []float64{0, 0.25}}
	if c := o.Exponent(0); c != 2 {
		t.Errorf("slope-only exponent = %g, want 2", c)
	}
	// Mean 0.25 implies c = 1/0.25 - 1 = 3.
	if c := o.Exponent(1); c != 3 {
		t.Errorf("probe-only exponent = %g, want 3", c)
	}
	both := &ObservedStats{Slopes: []float64{4}, ProbeMeans: []float64{0.5}}
	// Slope 4, mean 0.5 -> cm = 1; geometric mean = 2.
	if c := both.Exponent(0); c != 2 {
		t.Errorf("blended exponent = %g, want 2", c)
	}
}

func TestObservedKey(t *testing.T) {
	if k := (*ObservedStats)(nil).Key(); k != "" {
		t.Errorf("nil stats key = %q, want empty", k)
	}
	baseline := &ObservedStats{Slopes: []float64{1, 0}, ProbeMeans: []float64{0.5, 0}}
	if k := baseline.Key(); k != "" {
		t.Errorf("baseline observations key = %q, want empty (indistinguishable from no observation)", k)
	}
	drifted := &ObservedStats{Slopes: []float64{2, 1}, ProbeMeans: []float64{0, 0}}
	k1 := drifted.Key()
	if k1 == "" {
		t.Fatal("drifted observations must produce a key")
	}
	same := &ObservedStats{Slopes: []float64{2, 1}, ProbeMeans: []float64{0, 0}}
	if same.Key() != k1 {
		t.Errorf("equal observations produced different keys: %q vs %q", same.Key(), k1)
	}
	other := &ObservedStats{Slopes: []float64{4, 1}, ProbeMeans: []float64{0, 0}}
	if other.Key() == k1 {
		t.Errorf("different observations share key %q", k1)
	}
}

// validatePlan asserts structural soundness: per-predicate depths in
// [0,1], Omega a permutation, positive cost.
func validatePlan(t *testing.T, p Plan, m int) {
	t.Helper()
	if len(p.H) != m {
		t.Fatalf("plan H arity %d, want %d", len(p.H), m)
	}
	for i, h := range p.H {
		if h < 0 || h > 1 {
			t.Fatalf("H[%d] = %g outside [0,1]", i, h)
		}
	}
	if len(p.Omega) != m {
		t.Fatalf("plan Omega arity %d, want %d", len(p.Omega), m)
	}
	seen := make([]bool, m)
	for _, i := range p.Omega {
		if i < 0 || i >= m || seen[i] {
			t.Fatalf("Omega %v is not a permutation", p.Omega)
		}
		seen[i] = true
	}
}

func TestGreedyFigure2Cells(t *testing.T) {
	caps := []access.Capability{access.Cheap, access.Expensive, access.Impossible}
	funcs := []score.Func{score.Min(), score.Avg(), score.Max()}
	for _, sa := range caps {
		for _, ra := range caps {
			if sa == access.Impossible && ra == access.Impossible {
				continue
			}
			scn := access.MatrixCell(3, sa, ra, 10)
			for _, f := range funcs {
				p, err := Greedy(scn, f, 5, 1000, nil)
				if err != nil {
					t.Fatalf("Greedy(%s, %s): %v", scn.Name, f.Name(), err)
				}
				validatePlan(t, p, 3)
				if p.Evals != 0 {
					t.Fatalf("greedy plan ran %d estimator evals, want 0", p.Evals)
				}
				// At least one sorted-capable predicate must descend, or no
				// object is ever discovered.
				drained := false
				for i, pc := range scn.Preds {
					if pc.SortedOK && p.H[i] < 1 {
						drained = true
					}
					if !pc.SortedOK && p.H[i] < 1 {
						t.Fatalf("%s/%s: sorted-incapable p%d got depth %g", scn.Name, f.Name(), i, p.H[i])
					}
				}
				if !drained {
					t.Fatalf("%s/%s: no predicate drained: H=%v", scn.Name, f.Name(), p.H)
				}
			}
		}
	}
}

func TestGreedyProbeIncapableDrained(t *testing.T) {
	// Predicate 1 is sorted-only: probes cannot learn it, so the greedy
	// plan must descend its stream even for min-like F.
	scn := access.Scenario{Preds: []access.PredCost{
		{Sorted: access.UnitCost, SortedOK: true, Random: access.UnitCost, RandomOK: true},
		{Sorted: access.CostOf(5), SortedOK: true},
	}}
	p, err := Greedy(scn, score.Min(), 5, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.H[1] >= 1 {
		t.Fatalf("probe-incapable predicate not drained: H=%v", p.H)
	}
}

func TestGreedyOmegaPrefersCheapHighGain(t *testing.T) {
	// Predicate 1 probes 10x cheaper at the same expected mean: it must
	// lead the probe schedule. Predicate 2 is probe-incapable: last.
	scn := access.Scenario{Preds: []access.PredCost{
		{Sorted: access.UnitCost, SortedOK: true, Random: access.CostOf(10), RandomOK: true},
		{Sorted: access.UnitCost, SortedOK: true, Random: access.UnitCost, RandomOK: true},
		{Sorted: access.UnitCost, SortedOK: true},
	}}
	p, err := Greedy(scn, score.Avg(), 5, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Omega[0] != 1 || p.Omega[2] != 2 {
		t.Fatalf("Omega = %v, want cheap probe first and probe-incapable last", p.Omega)
	}
}

func TestGreedyUsesObservedSlopes(t *testing.T) {
	scn := access.Uniform(2, 1, 1)
	flat, err := Greedy(scn, score.Avg(), 5, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A steep stream (c=8) reaches the same rank at a much lower score
	// threshold: observed slopes must move the depths.
	steep, err := Greedy(scn, score.Avg(), 5, 1000, &ObservedStats{Slopes: []float64{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !(steep.H[0] < flat.H[0]) {
		t.Fatalf("steep slope should deepen score-space depth: %g vs %g", steep.H[0], flat.H[0])
	}
}

func TestOptimizeSchemeGreedy(t *testing.T) {
	scn := access.Uniform(2, 1, 10)
	p, err := Optimize(Config{Scheme: SchemeGreedy}, scn, score.Avg(), 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	validatePlan(t, p, 2)
	direct, err := Greedy(scn, score.Avg(), 5, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.H {
		if p.H[i] != direct.H[i] {
			t.Fatalf("Optimize(SchemeGreedy) H=%v differs from Greedy H=%v", p.H, direct.H)
		}
	}
}

func TestObservedStatsRekeyPlanCache(t *testing.T) {
	cache := NewPlanCache(8)
	scn := access.Uniform(2, 1, 10)
	cfg := Config{SampleSize: 20}
	if _, err := cache.Get(cfg, scn, score.Avg(), 5, 500); err != nil {
		t.Fatal(err)
	}
	drift := cfg
	drift.Observed = &ObservedStats{Slopes: []float64{4, 1}}
	if _, err := cache.Get(drift, scn, score.Avg(), 5, 500); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("observed stats must re-key the cache: stats=%+v", st)
	}
	// The same observations hit.
	again := cfg
	again.Observed = &ObservedStats{Slopes: []float64{4, 1}}
	if _, err := cache.Get(again, scn, score.Avg(), 5, 500); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("identical observations must share a plan: stats=%+v", st)
	}
	// Baseline observations (all-1 slopes) are the no-observation key.
	base := cfg
	base.Observed = &ObservedStats{Slopes: []float64{1, 1}}
	if _, err := cache.Get(base, scn, score.Avg(), 5, 500); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 2 {
		t.Fatalf("baseline observations must share the unobserved plan: stats=%+v", st)
	}
}

func TestOptimizeWarpsSampleUnderObservations(t *testing.T) {
	// With observations attached, the estimator prices configurations
	// against the warped sample; the pipeline must still produce a valid
	// plan (the substantive cost assertions live in the adaptive property
	// tests at the repo root).
	scn := access.Uniform(2, 1, 10)
	cfg := Config{SampleSize: 30, Observed: &ObservedStats{Slopes: []float64{4, 4}}}
	p, err := Optimize(cfg, scn, score.Avg(), 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	validatePlan(t, p, 2)
}

// TestWarpSampleAllocGate holds an adaptive re-plan's warped sample to
// whole blocks, however many rows the sample has: its score slab, its
// name, the dataset and its sorted views (one block of ids, one of their m
// headers) are 5, under a gate of m + 4. A row per sample object would be
// ~1,000 more.
func TestWarpSampleAllocGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate needs a build without the race detector")
	}
	const m = 3
	sample := datatest.MustDummySample(1000, m, 1)
	exps := []float64{2, 0.5, 3}
	warped, err := warpSample(sample, exps)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < sample.N(); u++ {
		for i := 0; i < m; i++ {
			if got, want := warped.Score(u, i), math.Pow(sample.Score(u, i), exps[i]); got != want {
				t.Fatalf("warped [%d][%d] = %v, want %v", u, i, got, want)
			}
		}
	}
	got := testing.AllocsPerRun(10, func() {
		if _, err := warpSample(sample, exps); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warping a 1,000-row sample: %.0f allocations", got)
	if got > m+4 {
		t.Errorf("warping a 1,000-row sample allocates %.0f blocks, gate is m + 4 = %d", got, m+4)
	}
}
