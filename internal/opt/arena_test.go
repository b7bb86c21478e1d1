package opt

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// sessionShape is the served mem_session planning problem: a three-way
// weighted sum, k=10, over n=1000 under unit costs, default HClimb.
func sessionShape() (access.Scenario, score.Func, int, int) {
	return access.Uniform(3, 1, 1), score.Weighted(0.3, 0.25, 0.45), 10, 1000
}

// TestOptimizeAllocGate holds planning to the price of its simulations:
// on a warm arena a simulation run allocates nothing, a cold-plan
// Optimize allocates little more than the plan it returns, a plan-cache
// hit only its two defensive plan copies, and pricing one configuration
// next to nothing.
func TestOptimizeAllocGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate needs steady-state measurement on a pool that keeps what it is given")
	}
	scn, f, k, n := sessionShape()
	optimize := func() {
		if _, err := Optimize(Config{}, scn, f, k, n); err != nil {
			t.Fatal(err)
		}
	}
	optimize() // warm the arena pool
	if got := testing.AllocsPerRun(20, optimize); got > 99 {
		t.Errorf("cold-plan Optimize allocates %.0f/op on a warm arena, gate is 99", got)
	}

	est, err := NewEstimator(datatest.MustDummySample(50, 3, 0), scn, f, k, n, true)
	if err != nil {
		t.Fatal(err)
	}
	h, omega := []float64{0.5, 0.4, 0.6}, []int{2, 0, 1}
	simulate := func() {
		if _, err := est.simulate(h, omega); err != nil {
			t.Fatal(err)
		}
	}
	simulate()
	if got := testing.AllocsPerRun(50, simulate); got != 0 {
		t.Errorf("a simulation run allocates %.0f/op, want 0", got)
	}

	cache := NewPlanCache(0)
	hit := func() {
		if _, err := cache.Get(Config{}, scn, f, k, n); err != nil {
			t.Fatal(err)
		}
	}
	hit() // the miss
	if got := testing.AllocsPerRun(50, hit); got > 3 {
		t.Errorf("PlanCache.Get hit allocates %.0f/op, gate is 3 (the returned plan's two slices + 1)", got)
	}
	// Into a recycled plan a hit allocates nothing, with a given sample
	// too — the key spells its identity — as every served plan has one.
	sampled := Config{Sample: datatest.MustDummySample(60, scn.M(), 3)}
	var dst Plan
	load := func() {
		if err := cache.Load(&dst, sampled, scn, f, k, n); err != nil {
			t.Fatal(err)
		}
	}
	load() // the miss
	if got := testing.AllocsPerRun(50, load); got != 0 {
		t.Errorf("PlanCache.Load hit on a given sample allocates %.0f/op, want 0", got)
	}

	price := func() {
		if _, err := EstimateConfiguration(Config{}, scn, f, k, n, h, omega); err != nil {
			t.Fatal(err)
		}
	}
	price()
	if got := testing.AllocsPerRun(50, price); got > 10 {
		t.Errorf("EstimateConfiguration allocates %.0f/op, gate is 10", got)
	}
}

// TestEstimateDistinguishesNearbyDepths is the regression test for the
// memo key that rounded depths to six decimals: two depth vectors 1e-7
// apart that straddle a sample score stop sorted access at different
// ranks, and each must be priced by its own simulation run.
func TestEstimateDistinguishesNearbyDepths(t *testing.T) {
	sample := datatest.MustDummySample(40, 2, 7)
	scn, f := access.Uniform(2, 1, 1), score.Min()
	_, s := sample.SortedAt(1, 6)
	below, above := []float64{0.5, s - 5e-8}, []float64{0.5, s + 5e-8}
	omega := []int{0, 1}
	fresh := func(h []float64) access.Cost {
		e, err := NewEstimator(sample, scn, f, 5, 40, true)
		if err != nil {
			t.Fatal(err)
		}
		c, err := e.Estimate(h, omega)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	wantBelow, wantAbove := fresh(below), fresh(above)
	if wantBelow == wantAbove {
		t.Fatalf("test premise broken: both depths cost %v", wantBelow)
	}
	e, err := NewEstimator(sample, scn, f, 5, 40, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		h    []float64
		want access.Cost
	}{{below, wantBelow}, {above, wantAbove}, {below, wantBelow}} {
		got, err := e.Estimate(c.h, omega)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Estimate(%v) = %v on a shared estimator, %v on a fresh one", c.h, got, c.want)
		}
	}
	if e.Evals() != 2 {
		t.Errorf("evals = %d, want 2 (one run per distinct depth vector, the repeat memoized)", e.Evals())
	}
}

// planOn plans one golden cell on the given arena and renders its line.
func planOn(t *testing.T, a *arena, c goldenCell) string {
	t.Helper()
	stream := &evalStream{}
	cfg := c.cfg.withDefaults()
	cfg.Observer = stream
	if err := a.Reset(cfg, c.scn, c.f, c.k, c.n); err != nil {
		t.Fatal(err)
	}
	plan, err := a.search(cfg, c.scn, c.f)
	if err != nil {
		t.Fatal(err)
	}
	return c.name + " " + formatPlan(plan) + " " + stream.digest()
}

// TestOptimizeReuseIsStateless plans 200 shuffled problems — function, k,
// n, scenario, seed, scheme and sample all varying — on one warm arena, on
// a fresh arena each, and through Optimize's pool, and requires identical
// plans and identical EstimatorEval streams from all three.
func TestOptimizeReuseIsStateless(t *testing.T) {
	cells := goldenCells()
	rng := rand.New(rand.NewSource(17))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	warm := &arena{}
	for i, c := range cells[:200] {
		c.cfg.Seed = int64(i % 7)
		fresh := planOn(t, &arena{}, c)
		if got := planOn(t, warm, c); got != fresh {
			t.Errorf("warm arena, call %d:\n got  %s\n want %s", i, got, fresh)
		}
		if got := planLine(c); got != fresh {
			t.Errorf("pooled Optimize, call %d:\n got  %s\n want %s", i, got, fresh)
		}
	}
}

// goldenLines maps cell name to its recorded line.
func goldenLines(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, _, _ := strings.Cut(l, " ")
		lines[name] = l
	}
	return lines
}

// TestArenaSurvivesFailedRuns is the hygiene contract: whatever a failed
// planning call or simulation run leaves in an arena — a rejected
// configuration, a rejected problem, a started Problem over a consumed
// session, a memo key with no entry — the next problem planned on it
// still gets the golden plan.
func TestArenaSurvivesFailedRuns(t *testing.T) {
	golden := goldenLines(t)
	cells := goldenCells()
	scn, f, k, n := sessionShape()
	bad := []struct {
		name  string
		spoil func(a *arena) error
	}{
		{"schedule that is not a permutation", func(a *arena) error {
			_, err := a.est.Estimate([]float64{0.5, 0.5, 0.5}, []int{0, 0, 1})
			return err
		}},
		{"depth outside [0,1]", func(a *arena) error {
			_, err := a.est.Estimate([]float64{0.5, 1.5, 0.5}, []int{0, 1, 2})
			return err
		}},
		{"depth vector of the wrong arity", func(a *arena) error {
			_, err := a.est.Estimate([]float64{0.5, 0.5}, nil)
			return err
		}},
		{"scoring function of the wrong arity", func(a *arena) error {
			return a.Reset(Config{}.withDefaults(), scn, score.Weighted(1, 2), k, n)
		}},
		{"scenario of the wrong arity", func(a *arena) error {
			return a.Reset(Config{}.withDefaults(), access.Uniform(2, 1, 1), f, k, n)
		}},
		{"non-positive k", func(a *arena) error {
			return a.Reset(Config{}.withDefaults(), scn, f, 0, n)
		}},
		{"run abandoned halfway", func(a *arena) error {
			// What a run that failed mid-flight leaves: a started problem,
			// a part-consumed session, a looked-up key never inserted.
			a.memo.lookup([]float64{0.1, 0.2, 0.3}, []int{2, 1, 0})
			if err := a.prob.Begin(); err != nil {
				return err
			}
			for i := 0; i < 5; i++ {
				if _, _, err := a.sess.SortedNext(i % 3); err != nil {
					return err
				}
			}
			return a.prob.Begin() // fails: already started
		}},
	}
	a := &arena{}
	for i, b := range bad {
		if err := a.Reset(Config{}.withDefaults(), scn, f, k, n); err != nil {
			t.Fatal(err)
		}
		if err := b.spoil(a); err == nil {
			t.Fatalf("%s: expected an error", b.name)
		}
		c := cells[(i*151)%len(cells)]
		if got := planOn(t, a, c); got != golden[c.name] {
			t.Errorf("after %s:\n got  %s\n want %s", b.name, got, golden[c.name])
		}
	}

	// The same through the pool: failed Optimize calls, then golden cells.
	for i, f := range []score.Func{score.Weighted(1, 2), score.Weighted(1, 2, 3, 4)} {
		if _, err := Optimize(Config{}, scn, f, k, n); err == nil {
			t.Fatal("arity mismatch should fail")
		}
		c := cells[(i*379+5)%len(cells)]
		if got := planLine(c); got != golden[c.name] {
			t.Errorf("after a failed Optimize:\n got  %s\n want %s", got, golden[c.name])
		}
	}
}

// TestPlanCacheConcurrentMisses has 8 goroutines miss the same cache on
// distinct keys at once — each optimization on its own pooled arena — and
// requires the plans of a serial run. Run under -race.
func TestPlanCacheConcurrentMisses(t *testing.T) {
	cells := goldenCells()
	golden := goldenLines(t)
	c := NewPlanCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(cells); i += 8 * 9 {
				cell := cells[i]
				plan, err := c.Get(cell.cfg, cell.scn, cell.f, cell.k, cell.n)
				if err != nil {
					t.Error(err)
					return
				}
				want := golden[cell.name]
				if got := cell.name + " " + formatPlan(plan); !strings.HasPrefix(want, got+" ") {
					t.Errorf("concurrent miss:\n got  %s\n want %s", got, want)
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits != 0 {
		t.Errorf("stats = %+v: distinct keys must all miss", st)
	}
}

// TestPlanCacheKeyText pins the key's text, so a rewrite of how it is
// built cannot silently merge or split entries.
func TestPlanCacheKeyText(t *testing.T) {
	scn := access.MatrixCell(2, access.Cheap, access.Impossible, 10)
	cfg := Config{Seed: -3, SortedDiscount: 0.25,
		Observed: &ObservedStats{Slopes: []float64{2, 1}}}.withDefaults()
	got := string(appendCacheKey(nil, scn, score.Avg(), 5, 1000, cfg))
	want := "f=avg k=5 n=1000 m=2|s:true:1000000 r:false:0|s:true:1000000 r:false:0" +
		"|cfg=0:11:50:5:-3:false disc=0.25:0 obs=2,1;"
	if got != want {
		t.Errorf("key =\n %s\nwant\n %s", got, want)
	}
	sample := datatest.MustDummySample(4, 3, 1)
	if !bytes.Contains(appendCacheKey(nil, scn, score.Avg(), 5, 1000, Config{Sample: sample}), []byte(" sample=0x")) {
		t.Error("a caller's sample must key by identity")
	}
	if !bytes.HasSuffix(appendCacheKey(nil, scn, score.Avg(), 5, 1000, Config{Sample: sample, Cols: []int{2, 0}}), []byte(" cols=2,0")) {
		t.Error("the columns of a sample must key as a list")
	}
	if reflect.DeepEqual(appendCacheKey(nil, scn, score.Avg(), 5, 1000, Config{}), appendCacheKey(nil, scn, score.Min(), 5, 1000, Config{})) {
		t.Error("scoring function must discriminate")
	}
}
