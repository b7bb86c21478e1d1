package opt

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/data/datatest"
	"repro/internal/obs"
	"repro/internal/score"
)

// countingObs counts estimator evaluations and plan-cache outcomes; safe
// for concurrent use so singleflight tests can share one instance.
type countingObs struct {
	evals, memo  atomic.Int64
	hits, misses atomic.Int64
	evictions    atomic.Int64
}

func (c *countingObs) Observe(ev obs.Event) {
	switch ev.Kind {
	case obs.EstimatorEval:
		if ev.Code == obs.Hit {
			c.memo.Add(1)
		} else {
			c.evals.Add(1)
		}
	case obs.PlanCache:
		if ev.Code == obs.Hit {
			c.hits.Add(1)
		} else {
			c.misses.Add(1)
		}
	case obs.PlanCacheEvict:
		c.evictions.Add(1)
	}
}

func quickCfg(o obs.Observer) Config {
	return Config{Grid: 5, SampleSize: 20, Restarts: 2, Observer: o}
}

func TestPlanCacheHitIsByteForByte(t *testing.T) {
	c := NewPlanCache(8)
	scn := access.Uniform(2, 1, 5)
	first, err := c.Get(quickCfg(nil), scn, score.Avg(), 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the returned slices: the cache must have kept its own copy.
	for i := range first.H {
		first.H[i] = -1
	}
	for i := range first.Omega {
		first.Omega[i] = -1
	}
	second, err := c.Get(quickCfg(nil), scn, score.Avg(), 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Optimize(quickCfg(nil), scn, score.Avg(), 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.H, direct.H) || !reflect.DeepEqual(second.Omega, direct.Omega) ||
		second.EstimatedCost != direct.EstimatedCost {
		t.Errorf("cached plan %+v differs from direct optimization %+v", second, direct)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestPlanCacheKeyDiscriminates(t *testing.T) {
	c := NewPlanCache(8)
	base := access.Uniform(2, 1, 5)
	if _, err := c.Get(quickCfg(nil), base, score.Avg(), 5, 500); err != nil {
		t.Fatal(err)
	}
	// Same costs under a different display name: must hit (session scenario
	// names mutate without changing the planning problem).
	renamed := access.Scenario{Name: "degraded/current", Preds: append([]access.PredCost(nil), base.Preds...)}
	if _, err := c.Get(quickCfg(nil), renamed, score.Avg(), 5, 500); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("renamed scenario should hit, stats = %+v", st)
	}
	// A breaker-style capability flip must miss: the plan is stale.
	flipped := access.Scenario{Name: base.Name, Preds: append([]access.PredCost(nil), base.Preds...)}
	flipped.Preds[1].RandomOK = false
	if _, err := c.Get(quickCfg(nil), flipped, score.Avg(), 5, 500); err != nil {
		t.Fatal(err)
	}
	// So must different k, scoring function, or search config.
	if _, err := c.Get(quickCfg(nil), base, score.Avg(), 6, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(quickCfg(nil), base, score.Min(), 5, 500); err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(nil)
	cfg.Seed = 99
	if _, err := c.Get(cfg, base, score.Avg(), 5, 500); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 5 {
		t.Errorf("stats = %+v, want 1 hit / 5 misses", st)
	}
}

// TestPlanCacheKeyIsThePlanningInputs: the key holds exactly what Optimize
// reads. Setting any one Config field moves it, except Observer, which
// only watches the search. A field added to Config fails here until it is
// given a case.
func TestPlanCacheKeyIsThePlanningInputs(t *testing.T) {
	scn, f, k, n := sessionShape()
	set := map[string]func(*Config){
		"Scheme":         func(c *Config) { c.Scheme = SchemeNaive },
		"Grid":           func(c *Config) { c.Grid = 5 },
		"SampleSize":     func(c *Config) { c.SampleSize = 20 },
		"Restarts":       func(c *Config) { c.Restarts = 2 },
		"Seed":           func(c *Config) { c.Seed = 7 },
		"Sample":         func(c *Config) { c.Sample = datatest.MustDummySample(4, 3, 1) },
		"Cols":           func(c *Config) { c.Cols = []int{2, 0, 1} },
		"DisableNWG":     func(c *Config) { c.DisableNWG = true },
		"SortedDiscount": func(c *Config) { c.SortedDiscount = 0.25 },
		"RandomDiscount": func(c *Config) { c.RandomDiscount = 0.25 },
		"Observed":       func(c *Config) { c.Observed = &ObservedStats{Slopes: []float64{2, 1, 1}} },
		"Observer":       func(c *Config) { c.Observer = obs.NewQueryTrace() },
	}
	base := string(appendCacheKey(nil, scn, f, k, n, Config{}.withDefaults()))
	for _, field := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		setField, ok := set[field.Name]
		if !ok {
			t.Errorf("Config.%s has no case: key it, or name it as watching the search", field.Name)
			continue
		}
		var cfg Config
		setField(&cfg)
		keyed := string(appendCacheKey(nil, scn, f, k, n, cfg.withDefaults())) != base
		if want := field.Name != "Observer"; keyed != want {
			t.Errorf("setting Config.%s moves the key = %v, want %v", field.Name, keyed, want)
		}
	}
}

func TestPlanCacheSingleflight(t *testing.T) {
	// Learn how many estimator simulations one optimization costs.
	solo := &countingObs{}
	if _, err := NewPlanCache(8).Get(quickCfg(solo), access.Uniform(2, 1, 5), score.Avg(), 5, 500); err != nil {
		t.Fatal(err)
	}
	perRun := solo.evals.Load()
	if perRun == 0 {
		t.Fatal("optimization ran no estimator evals; test premise broken")
	}

	shared := &countingObs{}
	c := NewPlanCache(8)
	const dupes = 8
	var wg sync.WaitGroup
	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get(quickCfg(shared), access.Uniform(2, 1, 5), score.Avg(), 5, 500); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := shared.evals.Load(); got != perRun {
		t.Errorf("%d concurrent identical queries ran %d estimator evals, want exactly one optimization (%d)",
			dupes, got, perRun)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != dupes-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, dupes-1)
	}
	if shared.misses.Load() != 1 || shared.hits.Load() != dupes-1 {
		t.Errorf("observer saw %d misses / %d hits, want 1 / %d",
			shared.misses.Load(), shared.hits.Load(), dupes-1)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	o := &countingObs{}
	c := NewPlanCache(2)
	for _, k := range []int{1, 2, 3} {
		if _, err := c.Get(quickCfg(o), access.Uniform(2, 1, 5), score.Avg(), k, 500); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want capacity 2", c.Len())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if o.evictions.Load() != 1 {
		t.Errorf("observer saw %d evictions, want 1", o.evictions.Load())
	}
	// k=1 was least recently used and must have been the entry dropped.
	if _, err := c.Get(quickCfg(o), access.Uniform(2, 1, 5), score.Avg(), 1, 500); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 4 {
		t.Errorf("re-fetching the evicted plan should miss; stats = %+v", st)
	}
}

// gateObs is a leader's observer: it parks the leader in its PlanCache
// miss event, before the optimization starts, until released.
type gateObs struct {
	countingObs
	parked  chan struct{}
	release chan struct{}
}

func (g *gateObs) Observe(ev obs.Event) {
	g.countingObs.Observe(ev)
	if ev.Kind == obs.PlanCache {
		close(g.parked)
		<-g.release
	}
}

// TestPlanCacheFailedLeaderFollowersAreObserved: lookups that wait on an
// in-flight optimization that then fails got no plan, and each must say
// so — one PlanCache miss event and one counted miss per lookup, like
// every other outcome — so a request's trace agrees with the metrics.
func TestPlanCacheFailedLeaderFollowersAreObserved(t *testing.T) {
	c := NewPlanCache(8)
	scn, bad := access.Uniform(2, 1, 5), score.Weighted(1, 2, 3) // arity 3 over 2 predicates: Optimize fails
	leader := &gateObs{parked: make(chan struct{}), release: make(chan struct{})}
	var wg sync.WaitGroup
	get := func(o obs.Observer) {
		defer wg.Done()
		if _, err := c.Get(quickCfg(o), scn, bad, 5, 500); err == nil {
			t.Error("arity mismatch should fail")
		}
	}
	wg.Add(1)
	go get(leader)
	<-leader.parked

	const followers = 4
	shared := &countingObs{}
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go get(shared)
	}
	// Give the followers time to find the in-flight call. The assertions
	// hold either way — a late follower leads a failing optimization of its
	// own — the pause only makes them exercise the follower path.
	time.Sleep(20 * time.Millisecond)
	close(leader.release)
	wg.Wait()

	if got := shared.misses.Load(); got != followers || shared.hits.Load() != 0 {
		t.Errorf("followers' observer saw %d misses / %d hits, want %d / 0", got, shared.hits.Load(), followers)
	}
	if st := c.Stats(); st.Misses != followers+1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want %d misses / 0 hits", st, followers+1)
	}
	if c.Len() != 0 {
		t.Errorf("a failed optimization was cached: Len = %d", c.Len())
	}
}
