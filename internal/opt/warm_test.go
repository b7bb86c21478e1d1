package opt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/obs"
	"repro/internal/score"
)

// driftFuncs returns count weighted sums over m predicates that start at
// w and raise the first weight by step each, the way a served user nudges
// their ranking between sessions.
func driftFuncs(w []float64, step float64, count int) []score.Func {
	fs := make([]score.Func, count)
	for i := range fs {
		wi := append([]float64(nil), w...)
		wi[0] += float64(i) * step
		fs[i] = score.Weighted(wi...)
	}
	return fs
}

// sourceObs records the outcome and plan evals of each PlanCache event.
type sourceObs struct {
	outcomes []uint8
	evals    []int32
}

func (s *sourceObs) Observe(ev obs.Event) {
	if ev.Kind == obs.PlanCache {
		s.outcomes = append(s.outcomes, ev.Code)
		s.evals = append(s.evals, int32(ev.Value))
	}
}

// TestPlanCacheWarmStartsFromNeighbour: a drifting weighted sum misses the
// cache on every call, but only the first searches cold; each later miss
// climbs from one start, the previous plan's depths, and its plan is
// exactly OptimizeFrom from those depths.
func TestPlanCacheWarmStartsFromNeighbour(t *testing.T) {
	scn, f0, k, n := sessionShape()
	w := f0.(score.Weighter).Weights()
	o := &sourceObs{}
	c := NewPlanCache(0)
	var prev Plan
	for i, f := range driftFuncs(w, 0.001, 12) {
		cfg := Config{Observer: o}
		plan, err := c.Get(cfg, scn, f, k, n)
		if err != nil {
			t.Fatal(err)
		}
		wantSource, wantCode := SourceWarm, obs.Warm
		if i == 0 {
			wantSource, wantCode = SourceCold, obs.Miss
		}
		if plan.Source != wantSource || o.outcomes[i] != wantCode || o.evals[i] != plan.Evals {
			t.Fatalf("call %d: source %v, event %v with %d evals, want %v (plan evals %d)",
				i, plan.Source, o.outcomes[i], o.evals[i], wantSource, plan.Evals)
		}
		if i > 0 {
			direct, err := OptimizeFrom(Config{}, scn, f, k, n, prev.H)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, direct) {
				t.Fatalf("call %d: cached warm plan %+v, OptimizeFrom the neighbour %+v", i, plan, direct)
			}
			if cold, _ := Optimize(Config{}, scn, f, k, n); plan.Evals >= cold.Evals {
				t.Errorf("call %d: warm search ran %d estimator evals, cold %d", i, plan.Evals, cold.Evals)
			}
		}
		prev = plan
	}
	if st := c.Stats(); st.Misses != 1 || st.Warm != 11 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 1 cold miss and 11 warm", st)
	}
	// A repeat is a hit that reports the plan as it was searched.
	again, err := c.Get(Config{Observer: o}, scn, driftFuncs(w, 0.001, 12)[11], k, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, prev) || o.outcomes[12] != obs.Hit || o.evals[12] != prev.Evals {
		t.Errorf("hit returned %+v with event %v/%d, want %+v", again, o.outcomes[12], o.evals[12], prev)
	}
}

// TestPlanCacheNeighbourMustMatchAllButWeights: a plan for other weights is
// a start only when every other input of the planning problem is the same,
// the weights are within the radius, and the function has weights at all.
func TestPlanCacheNeighbourMustMatchAllButWeights(t *testing.T) {
	scn, f, k, n := sessionShape()
	w := f.(score.Weighter).Weights()
	near := driftFuncs(w, 0.001, 2)[1]
	far := driftFuncs(w, 2*neighbourRadius, 2)[1]
	other := access.Uniform(3, 1, 2)
	// Each case's cache holds the base weights' plan and plans of functions
	// without weights, all under seedCfg, before the case's lookup.
	cases := []struct {
		name    string
		seedCfg Config
		cfg     Config
		scn     access.Scenario
		f       score.Func
		k, n    int
		warm    bool
	}{
		{"near weights", Config{}, Config{}, scn, near, k, n, true},
		{"weights beyond the radius", Config{}, Config{}, scn, far, k, n, false},
		{"other k", Config{}, Config{}, scn, near, k + 1, n, false},
		{"other n", Config{}, Config{}, scn, near, k, 2 * n, false},
		{"other costs", Config{}, Config{}, other, near, k, n, false},
		{"other seed", Config{}, Config{Seed: 7}, scn, near, k, n, false},
		{"other backend", Config{}, Config{BackendKey: "shards=2"}, scn, near, k, n, false},
		{"observations", Config{}, Config{Observed: &ObservedStats{Slopes: []float64{2, 1, 1}}}, scn, near, k, n, false},
		{"other arity", Config{}, Config{}, access.Uniform(4, 1, 1), score.Weighted(0.301, 0.25, 0.45, 0.1), k, n, false},
		{"Naive scheme", Config{Scheme: SchemeNaive, Grid: 5}, Config{Scheme: SchemeNaive, Grid: 5}, scn, near, k, n, false},
		{"Strategies scheme", Config{Scheme: SchemeStrategies}, Config{Scheme: SchemeStrategies}, scn, near, k, n, false},
		{"no weights: avg", Config{}, Config{}, scn, score.Avg(), k, n, false},
		{"no weights: min", Config{}, Config{}, scn, score.Min(), k, n, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewPlanCache(0)
			for _, g := range []score.Func{f, score.Avg(), score.Min(), score.Max()} {
				if _, err := c.Get(tc.seedCfg, scn, g, k, n); err != nil {
					t.Fatal(err)
				}
			}
			plan, err := c.Get(tc.cfg, tc.scn, tc.f, tc.k, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.Source == SourceWarm; got != tc.warm {
				t.Errorf("warm = %v (source %v), want %v", got, plan.Source, tc.warm)
			}
			if st := c.Stats(); (st.Warm == 1) != tc.warm {
				t.Errorf("stats = %+v, want warm=%v", st, tc.warm)
			}
			if !tc.warm {
				cold, err := Optimize(tc.cfg, tc.scn, tc.f, tc.k, tc.n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plan, cold) {
					t.Errorf("a miss without a neighbour planned %+v, Optimize %+v", plan, cold)
				}
			}
		})
	}
}

// TestPlanCacheNeverStartsFromEvicted: neighbours are the LRU's own
// entries, so once the near plan is evicted the miss searches cold; with
// one more slot of capacity the same sequence warm-starts.
func TestPlanCacheNeverStartsFromEvicted(t *testing.T) {
	scn, f, k, n := sessionShape()
	near := driftFuncs(f.(score.Weighter).Weights(), 0.001, 2)[1]
	for _, capacity := range []int{2, 3} {
		c := NewPlanCache(capacity)
		for _, g := range []score.Func{f, score.Avg(), score.Min()} {
			if _, err := c.Get(Config{}, scn, g, k, n); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := c.Get(Config{}, scn, near, k, n)
		if err != nil {
			t.Fatal(err)
		}
		if evicted := capacity == 2; (plan.Source == SourceWarm) == evicted {
			t.Errorf("capacity %d: source %v with the neighbour evicted=%v", capacity, plan.Source, evicted)
		}
	}
}

// TestPlanCacheConcurrentWarmMisses has eight users drift their weights
// through one cache at once, each user's weights far outside the radius of
// every other's, and requires the plans of a serial run: a user's start is
// always their own previous plan, whoever else is planning. Run under
// -race.
func TestPlanCacheConcurrentWarmMisses(t *testing.T) {
	scn, _, k, n := sessionShape()
	const users, steps = 8, 6
	funcs := make([][]score.Func, users)
	for u := range funcs {
		funcs[u] = driftFuncs([]float64{0.1 + 0.1*float64(u), 0.5, 0.25}, 0.001, steps)
	}
	serial := make([][]Plan, users)
	for u := range funcs {
		c := NewPlanCache(0)
		for _, f := range funcs[u] {
			p, err := c.Get(Config{}, scn, f, k, n)
			if err != nil {
				t.Fatal(err)
			}
			serial[u] = append(serial[u], p)
		}
	}
	c := NewPlanCache(0)
	var wg sync.WaitGroup
	for u := range funcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, f := range funcs[u] {
				p, err := c.Get(Config{}, scn, f, k, n)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(p, serial[u][i]) {
					t.Errorf("user %d step %d: concurrent plan %+v, serial %+v", u, i, p, serial[u][i])
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != users || st.Warm != users*(steps-1) {
		t.Errorf("stats = %+v, want %d cold and %d warm misses", st, users, users*(steps-1))
	}
}

// driftMisses is mem_session's miss path on one cache: a weighted sum over
// three predicates, k=10, n=1000, whose first weight rises 0.001 a call
// for 200 calls and wraps. Warm, each miss finds the previous call's plan
// as its neighbour. Cold, each call plans for a backend of its own, so no
// cached plan is a neighbour and every miss searches from five starts.
// After prime, the cache is full and every call misses and evicts.
type driftMisses struct {
	c     *PlanCache
	scn   access.Scenario
	k, n  int
	funcs []score.Func
	keys  []string
	dst   Plan
	i     int
}

func newDriftMisses(cold bool) *driftMisses {
	scn, f, k, n := sessionShape()
	d := &driftMisses{c: NewPlanCache(0), scn: scn, k: k, n: n, funcs: driftFuncs(f.(score.Weighter).Weights(), 0.001, 200)}
	d.keys = make([]string, len(d.funcs))
	for i := range d.keys {
		if cold {
			d.keys[i] = fmt.Sprintf("backend-%d", i)
		}
	}
	return d
}

func (d *driftMisses) next() error {
	j := d.i % len(d.funcs)
	d.i++
	return d.c.Load(&d.dst, Config{BackendKey: d.keys[j]}, d.scn, d.funcs[j], d.k, d.n)
}

func (d *driftMisses) prime() error {
	for range d.funcs {
		if err := d.next(); err != nil {
			return err
		}
	}
	return nil
}

// TestPlanCacheWarmMissAllocGate holds a warm miss to the allocations of a
// cold one: the neighbour scan reads weights and keys in place and copies
// the start onto the stack, so a warm miss allocates what a cold one does,
// the cache entry and the plan.
func TestPlanCacheWarmMissAllocGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate needs steady-state measurement on a pool that keeps what it is given")
	}
	allocs := map[bool]float64{}
	for _, cold := range []bool{true, false} {
		d := newDriftMisses(cold)
		if err := d.prime(); err != nil {
			t.Fatal(err)
		}
		allocs[cold] = testing.AllocsPerRun(50, func() {
			if err := d.next(); err != nil {
				t.Fatal(err)
			}
		})
		if want := map[bool]Source{true: SourceCold, false: SourceWarm}[cold]; d.dst.Source != want {
			t.Fatalf("cold=%v: misses planned %v, want %v", cold, d.dst.Source, want)
		}
	}
	t.Logf("allocs per miss: cold %.0f, warm %.0f", allocs[true], allocs[false])
	if allocs[false] > allocs[true] {
		t.Errorf("a warm miss allocates %.0f/op, a cold one %.0f", allocs[false], allocs[true])
	}
}

// BenchmarkPlanCacheDrift prices driftMisses' cold and warm misses: ns,
// allocations and estimator runs per miss.
func BenchmarkPlanCacheDrift(b *testing.B) {
	for _, cold := range []bool{true, false} {
		b.Run(map[bool]string{true: "cold", false: "warm"}[cold], func(b *testing.B) {
			d := newDriftMisses(cold)
			if err := d.prime(); err != nil {
				b.Fatal(err)
			}
			evals := int32(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.next(); err != nil {
					b.Fatal(err)
				}
				evals += d.dst.Evals
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}

// TestOptimizeFromRejectsMisshapenStart: a start is a depth per
// predicate, and any other length is the caller's error, not a plan.
func TestOptimizeFromRejectsMisshapenStart(t *testing.T) {
	scn, f, k, n := sessionShape()
	for _, start := range [][]float64{{0.5}, {0.5, 0.5, 0.5, 0.5}, {}} {
		if _, err := OptimizeFrom(Config{}, scn, f, k, n, start); err == nil {
			t.Errorf("start %v over 3 predicates: no error", start)
		}
	}
}

// ExampleOptimizeFrom shows a warm start's price next to a cold search's.
func ExampleOptimizeFrom() {
	scn, f, k, n := sessionShape()
	cold, _ := Optimize(Config{}, scn, f, k, n)
	next := score.Weighted(0.301, 0.25, 0.45)
	warm, _ := OptimizeFrom(Config{}, scn, next, k, n, cold.H)
	fmt.Println(cold.Source, warm.Source, warm.Evals < cold.Evals)
	// Output: cold warm true
}
