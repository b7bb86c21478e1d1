package algo

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// fig3 is the paper's Dataset 1 (Figure 3): sorted access on p1 yields
// u3(.7), u2(.65), u1(.6); under F = min the top-1 is u3 with score .7.
// Paper objects u1,u2,u3 are OIDs 0,1,2.
func fig3() *data.Dataset {
	return datatest.MustNew("fig3", [][]float64{
		{0.6, 0.8},
		{0.65, 0.8},
		{0.7, 0.9},
	})
}

func mustSession(t *testing.T, ds *data.Dataset, scn access.Scenario, opts ...access.Option) *access.Session {
	t.Helper()
	sess, err := access.NewSession(access.DatasetBackend{DS: ds}, scn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func mustRun(t *testing.T, alg Algorithm, ds *data.Dataset, scn access.Scenario, f score.Func, k int, opts ...access.Option) (*Result, *access.Session) {
	t.Helper()
	sess := mustSession(t, ds, scn, opts...)
	prob, err := NewProblem(f, k, sess)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(prob)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res, sess
}

// assertTopK checks a result against the brute-force oracle, tolerating
// tie permutations: the multiset of *true* overall scores of the returned
// objects must equal the oracle's, every returned object must be distinct,
// and items flagged Exact must carry their true score.
func assertTopK(t *testing.T, name string, ds *data.Dataset, f score.Func, k int, res *Result) {
	t.Helper()
	oracle := ds.TopK(f.Eval, k)
	if len(res.Items) != len(oracle) {
		t.Fatalf("%s: returned %d items, oracle has %d", name, len(res.Items), len(oracle))
	}
	gotScores := make([]float64, len(res.Items))
	seen := make(map[int]bool)
	for i, it := range res.Items {
		if seen[it.Obj] {
			t.Fatalf("%s: duplicate object %d in result", name, it.Obj)
		}
		seen[it.Obj] = true
		truth := f.Eval(ds.Scores(it.Obj))
		gotScores[i] = truth
		if it.Exact && math.Abs(it.Score-truth) > 1e-9 {
			t.Fatalf("%s: object %d reported exact score %g, truth %g", name, it.Obj, it.Score, truth)
		}
	}
	wantScores := make([]float64, len(oracle))
	for i, r := range oracle {
		wantScores[i] = r.Score
	}
	sort.Float64s(gotScores)
	sort.Float64s(wantScores)
	for i := range gotScores {
		if math.Abs(gotScores[i]-wantScores[i]) > 1e-9 {
			t.Fatalf("%s: score multiset mismatch at %d: got %v want %v", name, i, gotScores, wantScores)
		}
	}
}

// TestNCFocusedConfigExample reproduces Example 10/11 and Figure 7: on
// Dataset 1 with F = min and k = 1, a focused configuration H = (0, 1)
// answers with exactly two accesses — sa1 (hitting u3 at .7) followed by
// ra2(u3) — returning u3 with score .7.
func TestNCFocusedConfigExample(t *testing.T) {
	alg, err := NewNC([]float64{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, sess := mustRun(t, alg, fig3(), access.Uniform(2, 1, 1), score.Min(), 1, access.WithTrace())
	if len(res.Items) != 1 || res.Items[0].Obj != 2 || math.Abs(res.Items[0].Score-0.7) > 1e-12 {
		t.Fatalf("result = %+v, want u3(=OID 2) at 0.7", res.Items)
	}
	trace := sess.Trace()
	if len(trace) != 2 {
		t.Fatalf("trace = %v, want exactly 2 accesses", trace)
	}
	if trace[0].String() != "sa1->u2(0.70)" || trace[1].String() != "ra2(u2)=0.90" {
		t.Errorf("trace = %v, %v", trace[0], trace[1])
	}
	if res.Cost() != 2*access.UnitCost {
		t.Errorf("cost = %v, want 2 units", res.Cost())
	}
}

// TestNCParallelConfigExample exercises Figure 8's parallel configuration
// H = (0.6, 0.6): sorted access is preferred on every list still above its
// depth, so the trace consists of sorted accesses only (no probe happens
// before both depths are reached; on this tiny dataset the second sorted
// access already completes u3). The paper's Figure 8 trace is longer only
// because NC may "arbitrarily pick any" incomplete top object; our
// implementation's documented policy is the highest-ranked one.
func TestNCParallelConfigExample(t *testing.T) {
	alg, err := NewNC([]float64{0.6, 0.6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, sess := mustRun(t, alg, fig3(), access.Uniform(2, 1, 1), score.Min(), 1, access.WithTrace())
	if len(res.Items) != 1 || res.Items[0].Obj != 2 {
		t.Fatalf("result = %+v, want u3", res.Items)
	}
	trace := sess.Trace()
	for _, rec := range trace {
		if rec.Kind != access.SortedAccess {
			t.Fatalf("parallel config issued %v before reaching its depths", rec)
		}
	}
	if trace[0].Pred != 0 || trace[len(trace)-1].Pred != 1 {
		t.Errorf("trace = %v, want sa1 first (Omega order) then sa2", trace)
	}
}

// TestNCFocusedBeatsParallelUnderMin verifies Example 11's optimization
// claim at scale: for F = min, a focused depth configuration costs less
// than an equal-depth (parallel) one, while both return the correct top-k.
func TestNCFocusedBeatsParallelUnderMin(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 400, 2, 99)
	scn := access.Uniform(2, 1, 1)
	run := func(h []float64) access.Cost {
		alg, err := NewNC(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := mustRun(t, alg, ds, scn, score.Min(), 10)
		assertTopK(t, "NC/min", ds, score.Min(), 10, res)
		return res.Cost()
	}
	focused := run([]float64{0.3, 1})
	parallel := run([]float64{0.8, 0.8})
	if focused >= parallel {
		t.Errorf("focused cost %v should beat parallel cost %v under min", focused, parallel)
	}
}

func TestNCAllBaselineScenarios(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 60, 3, 17)
	scns := []access.Scenario{
		access.Uniform(3, 1, 1),
		access.MatrixCell(3, Cheap, Expensive, 10),
		access.MatrixCell(3, Cheap, Impossible, 10),
		access.MatrixCell(3, Impossible, Cheap, 10),
		access.MatrixCell(3, Expensive, Cheap, 10), // the "?" cell of Figure 2
	}
	for _, scn := range scns {
		for _, f := range []score.Func{score.Min(), score.Avg()} {
			alg, err := NewNC([]float64{0.5, 0.5, 0.5}, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := mustRun(t, alg, ds, scn, f, 5)
			assertTopK(t, "NC/"+scn.Name+"/"+f.Name(), ds, f, 5, res)
		}
	}
}

// Cheap etc. re-exported for test readability.
const (
	Cheap      = access.Cheap
	Expensive  = access.Expensive
	Impossible = access.Impossible
)

func TestBaselinesMatchOracle(t *testing.T) {
	cases := []struct {
		alg Algorithm
		scn func(m int) access.Scenario
		fs  []score.Func
	}{
		{FA{}, func(m int) access.Scenario { return access.Uniform(m, 1, 1) }, []score.Func{score.Min(), score.Avg(), score.Max()}},
		{TA{}, func(m int) access.Scenario { return access.Uniform(m, 1, 1) }, []score.Func{score.Min(), score.Avg(), score.Max()}},
		{CA{}, func(m int) access.Scenario { return access.MatrixCell(m, Cheap, Expensive, 10) }, []score.Func{score.Min(), score.Avg()}},
		{NRA{}, func(m int) access.Scenario { return access.MatrixCell(m, Cheap, Impossible, 10) }, []score.Func{score.Min(), score.Avg()}},
		{MPro{}, func(m int) access.Scenario { return access.MatrixCell(m, Impossible, Expensive, 10) }, []score.Func{score.Min(), score.Avg()}},
		{Upper{}, func(m int) access.Scenario { return access.MatrixCell(m, Impossible, Expensive, 10) }, []score.Func{score.Min(), score.Avg()}},
		{QuickCombine{}, func(m int) access.Scenario { return access.Uniform(m, 1, 1) }, []score.Func{score.Avg(), score.Product()}},
		{StreamCombine{}, func(m int) access.Scenario { return access.MatrixCell(m, Cheap, Impossible, 10) }, []score.Func{score.Avg()}},
	}
	dists := []data.Distribution{data.Uniform, data.Correlated, data.AntiCorrelated}
	for _, c := range cases {
		for _, dist := range dists {
			for _, m := range []int{2, 3} {
				ds := datatest.MustGenerate(dist, 50, m, 23)
				for _, f := range c.fs {
					for _, k := range []int{1, 5, 12} {
						res, _ := mustRun(t, c.alg, ds, c.scn(m), f, k)
						assertTopK(t, c.alg.Name()+"/"+dist.String()+"/"+f.Name(), ds, f, k, res)
					}
				}
			}
		}
	}
}

func TestKLargerThanN(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 7, 2, 3)
	algs := []Algorithm{FA{}, TA{}, CA{}, NRA{}, MustNCForTest(2), QuickCombine{}}
	for _, alg := range algs {
		res, _ := mustRun(t, alg, ds, access.Uniform(2, 1, 1), score.Avg(), 20)
		assertTopK(t, alg.Name()+"/k>n", ds, score.Avg(), 20, res)
	}
}

// MustNCForTest builds a mid-depth NC instance for m predicates.
func MustNCForTest(m int) Algorithm {
	h := make([]float64, m)
	for i := range h {
		h[i] = 0.5
	}
	alg, err := NewNC(h, nil)
	if err != nil {
		panic(err)
	}
	return alg
}

func TestCapabilityErrors(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 1)
	noRandom := access.MatrixCell(2, Cheap, Impossible, 10)
	for _, alg := range []Algorithm{FA{}, TA{}, CA{}, QuickCombine{}} {
		sess := mustSession(t, ds, noRandom)
		prob, _ := NewProblem(score.Avg(), 3, sess)
		if _, err := alg.Run(prob); err == nil {
			t.Errorf("%s should refuse a no-random scenario", alg.Name())
		}
	}
	probeOnly := access.MatrixCell(2, Impossible, Cheap, 10)
	for _, alg := range []Algorithm{NRA{}, StreamCombine{}} {
		sess := mustSession(t, ds, probeOnly)
		prob, _ := NewProblem(score.Avg(), 3, sess)
		if _, err := alg.Run(prob); err == nil {
			t.Errorf("%s should refuse a probe-only scenario", alg.Name())
		}
	}
}

func TestQuickCombineRefusesMin(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 1)
	sess := mustSession(t, ds, access.Uniform(2, 1, 1))
	prob, _ := NewProblem(score.Min(), 3, sess)
	if _, err := (QuickCombine{}).Run(prob); !errors.Is(err, ErrInapplicable) {
		t.Errorf("Quick-Combine on min: err = %v, want ErrInapplicable", err)
	}
	sess = mustSession(t, ds, access.MatrixCell(2, Cheap, Impossible, 10))
	prob, _ = NewProblem(score.Min(), 3, sess)
	if _, err := (StreamCombine{}).Run(prob); !errors.Is(err, ErrInapplicable) {
		t.Errorf("Stream-Combine on min: err = %v, want ErrInapplicable", err)
	}
}

func TestNewProblemValidation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 5, 2, 1)
	sess := mustSession(t, ds, access.Uniform(2, 1, 1))
	if _, err := NewProblem(score.Avg(), 0, sess); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewProblem(score.Weighted(1, 2, 3), 2, sess); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestSRGValidation(t *testing.T) {
	if _, err := NewSRG(nil, nil); err == nil {
		t.Error("empty H should fail")
	}
	if _, err := NewSRG([]float64{0.5, 1.5}, nil); err == nil {
		t.Error("H out of range should fail")
	}
	if _, err := NewSRG([]float64{0.5, 0.5}, []int{0}); err == nil {
		t.Error("short Omega should fail")
	}
	if _, err := NewSRG([]float64{0.5, 0.5}, []int{0, 0}); err == nil {
		t.Error("non-permutation Omega should fail")
	}
	if _, err := NewSRG([]float64{0.5, 0.5}, []int{1, 0}); err != nil {
		t.Errorf("valid SRG rejected: %v", err)
	}
}

func TestOmegaOrderControlsProbes(t *testing.T) {
	// In a probe-heavy scenario, Omega decides which predicate is probed
	// first. With H = (0,1,1) and Omega = (0,2,1), probes on each object
	// must hit p3 before p2.
	ds := datatest.MustGenerate(data.Uniform, 30, 3, 5)
	scn := access.MatrixCell(3, Impossible, Cheap, 10)
	alg, err := NewNC([]float64{0, 1, 1}, []int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	_, sess := mustRun(t, alg, ds, scn, score.Min(), 3, access.WithTrace())
	probedP2 := make(map[int]bool)
	for _, rec := range sess.Trace() {
		if rec.Kind != access.RandomAccess {
			continue
		}
		switch rec.Pred {
		case 1:
			if !probedP2[rec.Obj] {
				t.Fatalf("object %d probed on p2 before p3 despite Omega", rec.Obj)
			}
		case 2:
			probedP2[rec.Obj] = true
		}
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{Items: []Item{{Obj: 4, Score: 0.9}, {Obj: 1, Score: 0.8}}}
	if got := res.Objects(); len(got) != 2 || got[0] != 4 || got[1] != 1 {
		t.Errorf("Objects = %v", got)
	}
}

func TestKthBest(t *testing.T) {
	items := []Item{{Obj: 0, Score: 0.2}, {Obj: 1, Score: 0.9}, {Obj: 2, Score: 0.5}, {Obj: 3, Score: 0.7}, {Obj: 4, Score: 0.5}}
	for _, c := range []struct{ k, obj int }{{1, 1}, {3, 4}, {4, 2}, {5, 0}} {
		if got := kthBest(items, c.k); got.Obj != c.obj {
			t.Errorf("kthBest(%d) = %+v, want object %d (equal scores rank higher id first)", c.k, got, c.obj)
		}
	}
}

func TestByNameRegistry(t *testing.T) {
	for _, name := range Names() {
		alg, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if alg.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, alg.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestNCName(t *testing.T) {
	alg := MustNCForTest(2)
	if alg.Name() == "" {
		t.Error("NC name empty")
	}
	if (MPro{}).Name() != "MPro" || (Upper{}).Name() != "Upper" {
		t.Error("names mismatch")
	}
}
