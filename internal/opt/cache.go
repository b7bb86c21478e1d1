package opt

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/access"
	"repro/internal/kit"
	"repro/internal/obs"
	"repro/internal/score"
)

// DefaultPlanCacheCapacity bounds a PlanCache built with capacity <= 0.
const DefaultPlanCacheCapacity = 128

// CacheStats is a point-in-time snapshot of plan-cache effectiveness.
// Hits include singleflight followers: a query that waited for a
// concurrent identical optimization still avoided an estimator run.
// Followers of an optimization that failed count as misses — they got no
// plan. Misses are cold searches and Warm the misses whose search started
// from a cached neighbour, so hits + misses + warm is always the number of
// lookups.
type CacheStats struct {
	Hits, Misses, Warm, Evictions uint64
}

// neighbourRadius is how far a cached plan's weights may sit from a miss's,
// in their largest single difference (L∞), and still start its search.
// E6's drift rows (EXPERIMENTS.md) chose it: up to a drift of 0.05 the
// warm start realizes exactly the cold search's cost on every Figure-2
// cell, for 7 estimator runs against 34–39; at 0.1 it is up to 22% dearer
// on two cells.
const neighbourRadius = 0.05

// PlanCache memoizes optimizer results across queries. Optimization is
// the serve path's dominant fixed cost — an HClimb search prices hundreds
// of configurations by simulation — while its inputs are fully
// deterministic, so identical planning problems always yield identical
// plans and can share one search.
//
// The key is a fingerprint of every input Optimize consumes: the
// scenario's per-predicate capabilities and costs (deliberately not its
// name — a breaker-degraded scenario differs in capability flags, so
// degradation invalidates cached plans with no extra wiring), the scoring
// function's identity, k, n, and the search configuration. Entries are
// kept in LRU order up to a fixed capacity.
//
// A miss for a weighted sum (score.Weighter) under HClimb first looks
// among the cached entries for a neighbour: a plan whose key differs only
// in the weights, within neighbourRadius. The nearest one's depths are the
// one start of the miss's search (OptimizeFrom), where a cold miss climbs
// from five. Any SR/G plan answers exactly, so a neighbour can move only
// the bill; only entries still cached are offered, and a miss without a
// neighbour, or for a function without weights, searches cold.
//
// Concurrent lookups of the same key are deduplicated singleflight-style:
// the first caller runs Optimize, every concurrent duplicate blocks on
// the in-flight call and shares its result, so a stampede of identical
// queries costs exactly one estimator run.
//
// A miss allocates what its search does, the key string and, until the
// cache is full, the LRU node: the entry keeps the search's plan itself,
// the weights stay with the scoring function, and the in-flight call is
// recycled.
//
// PlanCache is safe for concurrent use. Per the lock discipline, the
// cache lock is never held across the optimizer run, the in-flight wait,
// or observer emissions.
type PlanCache struct {
	mu       sync.Mutex
	lru      *kit.LRU[string, cacheEntry]
	inflight map[string]*planCall
	spare    *planCall // an idle call, the next miss's

	hits, misses, warm, evictions uint64
}

// cacheEntry is a cached plan with what the neighbour scan reads beside
// its key: where the key's text after the scoring function's name starts,
// and the function, when it is a weighted sum, whose weights a Func never
// changes. The plan is the search's own result, whose slices no caller
// holds: callers get copies.
type cacheEntry struct {
	plan Plan
	w    score.Weighter
	rest int
}

// planCall is one in-flight search. Its leader sets plan and err and
// calls wg.Done under PlanCache.mu; each follower waits on wg unlocked and
// reads the result under the lock. The last reader, follower or leader,
// hands the call back as the cache's spare.
type planCall struct {
	wg      sync.WaitGroup
	plan    Plan
	err     error
	waiters int // followers yet to read plan and err
}

// NewPlanCache builds a plan cache bounded to capacity entries
// (DefaultPlanCacheCapacity when capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCapacity
	}
	return &PlanCache{
		lru:      kit.NewLRU[string, cacheEntry](capacity),
		inflight: make(map[string]*planCall),
	}
}

// Get returns the plan for the planning problem, running Optimize on a
// miss and caching the result: Load into a fresh Plan, whose slices are the
// caller's to own.
func (c *PlanCache) Get(cfg Config, scn access.Scenario, f score.Func, k, n int) (Plan, error) {
	var p Plan
	err := c.Load(&p, cfg, scn, f, k, n)
	return p, err
}

// Load writes the plan for the planning problem into dst, running Optimize
// on a miss and caching the result. The plan is copied once, into dst's own
// backing arrays (grown only when too short), so a hit into a recycled dst
// allocates nothing and dst never aliases the cached entry. Lookup outcomes,
// once the plan is known, and evictions are emitted on cfg.Observer; errors
// are never cached, and leave dst as it was.
func (c *PlanCache) Load(dst *Plan, cfg Config, scn access.Scenario, f score.Func, k, n int) error {
	// The key is built on the stack and looked up through kit.GetBytes,
	// which never materializes it as a string: a hit allocates nothing here.
	var buf [256]byte
	key := appendCacheKey(buf[:0], scn, f, k, n, cfg.withDefaults())

	c.mu.Lock()
	if cached, ok := kit.GetBytes(c.lru, key); ok {
		dst.CopyFrom(&cached.plan)
		c.hits++
		c.mu.Unlock()
		observeLookup(cfg, obs.Hit, dst.Evals)
		return nil
	}
	if call, ok := c.inflight[string(key)]; ok {
		call.waiters++
		c.mu.Unlock()
		call.wg.Wait()
		c.mu.Lock()
		err, evals := call.err, call.plan.Evals
		outcome := obs.Hit
		if err == nil {
			c.hits++
			dst.CopyFrom(&call.plan)
		} else {
			c.misses++
			outcome = obs.Miss
		}
		if call.waiters--; call.waiters == 0 {
			c.recycle(call)
		}
		c.mu.Unlock()
		observeLookup(cfg, outcome, evals)
		return err
	}
	call := c.spare
	if call == nil {
		call = new(planCall)
	}
	c.spare = nil
	call.wg.Add(1)
	skey := string(key)
	c.inflight[skey] = call
	// The neighbour's depths are copied out under the lock, onto the stack:
	// the search runs unlocked, and an eviction meanwhile cannot touch them.
	var startBuf [16]float64
	start := c.neighbour(startBuf[:0], key, cfg, f)
	outcome := obs.Miss
	if start != nil {
		outcome = obs.Warm
		c.warm++
	} else {
		c.misses++
	}
	c.mu.Unlock()

	plan, err := OptimizeFrom(cfg, scn, f, k, n, start)
	// Emitted before the followers are released, so a follower's event can
	// never precede its leader's.
	observeLookup(cfg, outcome, plan.Evals)

	c.mu.Lock()
	delete(c.inflight, skey)
	evicted := 0
	if err == nil {
		// OptimizeFrom's plan owns its slices, so the entry keeps it and
		// dst, like every later reader, gets a copy.
		w, _ := f.(score.Weighter)
		evicted = c.lru.Put(skey, cacheEntry{plan: plan, w: w, rest: keyRest(f)})
		c.evictions += uint64(evicted)
	}
	call.plan, call.err = plan, err
	call.wg.Done()
	if call.waiters == 0 {
		c.recycle(call)
	}
	c.mu.Unlock()
	for i := 0; i < evicted; i++ {
		if cfg.Observer != nil {
			cfg.Observer.Observe(obs.Event{Kind: obs.PlanCacheEvict})
		}
	}
	if err != nil {
		return err
	}
	dst.CopyFrom(&plan)
	return nil
}

// recycle keeps a call whose result every reader has read as the spare
// (c.mu held), dropping what it held.
func (c *PlanCache) recycle(call *planCall) {
	call.plan, call.err = Plan{}, nil
	c.spare = call
}

// observeLookup emits a lookup's PlanCache event: its outcome, the
// estimator runs of the plan it produced and the sample it was searched on.
func observeLookup(cfg Config, outcome uint8, evals int32) {
	if cfg.Observer != nil {
		cfg.Observer.Observe(obs.Event{Kind: obs.PlanCache, Code: outcome, Value: float64(evals), Label: SampleName(cfg)})
	}
}

// neighbour appends to dst the depths of the cached plan whose weights are
// nearest f's in L∞, among the entries whose key equals key but for the
// scoring function, within neighbourRadius; ties go to the most recently
// used. It returns nil when there is none, when f is not a weighted sum
// and when the scheme is not HClimb, the one search a start can seed. The
// caller holds c.mu. The scan reads weights through score.Weighter.Weight
// and compares keys in place, so it allocates nothing.
func (c *PlanCache) neighbour(dst []float64, key []byte, cfg Config, f score.Func) []float64 {
	w, ok := f.(score.Weighter)
	if !ok || cfg.Scheme != SchemeHClimb {
		return nil
	}
	rest := key[keyRest(f):]
	var start []float64
	nearest := math.Inf(1)
	c.lru.Each(func(k string, e cacheEntry) bool {
		if e.w == nil || e.w.Arity() != w.Arity() || k[e.rest:] != string(rest) {
			return true
		}
		d := 0.0
		for i := range w.Arity() {
			d = max(d, math.Abs(e.w.Weight(i)-w.Weight(i)))
		}
		if d <= neighbourRadius && d < nearest {
			nearest, start = d, e.plan.H
		}
		return true
	})
	if start == nil {
		return nil
	}
	return append(dst, start...)
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Warm: c.warm, Evictions: c.evictions}
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Purge drops every cached plan (counters are kept). In-flight
// optimizations complete and re-insert; stale entries otherwise age out
// via LRU, so Purge exists for tests and operational resets, not
// correctness.
func (c *PlanCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Purge()
}

// keyRest is where appendCacheKey's text after the scoring function's
// name starts: the name is the key's first field, so from there on the
// key is the planning problem without the function.
func keyRest(f score.Func) int { return len("f=") + len(f.Name()) }

// appendCacheKey appends the fingerprint of a planning problem to dst.
// cfg must already be normalized (withDefaults) so a zero Config and an
// explicit default Config share an entry. The scenario contributes
// capabilities and exact costs per predicate; its display name is
// excluded on purpose (session scenario names mutate — "/current",
// "/degraded" — without changing the planning problem, and vice versa).
func appendCacheKey(dst []byte, scn access.Scenario, f score.Func, k, n int, cfg Config) []byte {
	field := func(sep string, v int64) {
		dst = append(dst, sep...)
		dst = strconv.AppendInt(dst, v, 10)
	}
	flag := func(sep string, v bool) {
		dst = append(dst, sep...)
		dst = strconv.AppendBool(dst, v)
	}
	dst = append(dst, "f="...)
	dst = append(dst, f.Name()...)
	field(" k=", int64(k))
	field(" n=", int64(n))
	field(" m=", int64(scn.M()))
	for _, pc := range scn.Preds {
		flag("|s:", pc.SortedOK)
		field(":", int64(pc.Sorted))
		flag(" r:", pc.RandomOK)
		field(":", int64(pc.Random))
	}
	field("|cfg=", int64(cfg.Scheme))
	field(":", int64(cfg.Grid))
	field(":", int64(cfg.SampleSize))
	field(":", int64(cfg.Restarts))
	field(":", cfg.Seed)
	flag(":", cfg.DisableNWG)
	if cfg.SortedDiscount > 0 || cfg.RandomDiscount > 0 {
		// Sharing discounts reshape the scenario Optimize plans against;
		// quantized rates keep the key space small.
		dst = append(dst, " disc="...)
		dst = strconv.AppendFloat(dst, cfg.SortedDiscount, 'g', -1, 64)
		dst = append(dst, ':')
		dst = strconv.AppendFloat(dst, cfg.RandomDiscount, 'g', -1, 64)
	}
	if fp := cfg.Observed.Key(); fp != "" {
		// Mid-query observations reshape the sample Optimize plans against,
		// exactly like the sharing discounts reshape costs; quantized values
		// keep the key space small and make repeat re-plans cache hits.
		dst = append(dst, ' ')
		dst = append(dst, fp...)
	}
	if cfg.Sample != nil {
		// A given sample changes the estimator's input; identity (not
		// content) is the practical discriminator for shared datasets.
		dst = fmt.Appendf(dst, " sample=%p", cfg.Sample)
	}
	if cfg.Cols != nil {
		// The columns of the sample the query reads, in its order.
		dst = append(dst, " cols="...)
		for i, c := range cfg.Cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(c), 10)
		}
	}
	return dst
}
