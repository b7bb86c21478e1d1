package opt

import (
	"fmt"
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
// plan — so hits + misses is always the number of lookups.
type CacheStats struct {
	Hits, Misses, Evictions uint64
}

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
// Concurrent lookups of the same key are deduplicated singleflight-style:
// the first caller runs Optimize, every concurrent duplicate blocks on
// the in-flight call and shares its result, so a stampede of identical
// queries costs exactly one estimator run.
//
// PlanCache is safe for concurrent use. Per the lock discipline, the
// cache lock is never held across the optimizer run, the in-flight wait,
// or observer emissions.
type PlanCache struct {
	mu       sync.Mutex
	lru      *kit.LRU[string, Plan]
	inflight map[string]*planCall

	hits, misses, evictions uint64
}

type planCall struct {
	done chan struct{} // closed when plan/err are set
	plan Plan
	err  error
}

// NewPlanCache builds a plan cache bounded to capacity entries
// (DefaultPlanCacheCapacity when capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCapacity
	}
	return &PlanCache{
		lru:      kit.NewLRU[string, Plan](capacity),
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
// allocates nothing and dst never aliases the cached entry. Lookup outcomes
// and evictions are emitted on cfg.Observer; errors are never cached, and
// leave dst as it was.
func (c *PlanCache) Load(dst *Plan, cfg Config, scn access.Scenario, f score.Func, k, n int) error {
	// The key is built on the stack and looked up through kit.GetBytes,
	// which never materializes it as a string: a hit allocates nothing here.
	var buf [256]byte
	key := appendCacheKey(buf[:0], scn, f, k, n, cfg.withDefaults())

	c.mu.Lock()
	if cached, ok := kit.GetBytes(c.lru, key); ok {
		dst.CopyFrom(&cached)
		c.hits++
		c.mu.Unlock()
		if cfg.Observer != nil {
			cfg.Observer.Observe(obs.Event{Kind: obs.PlanCache, Code: obs.Hit})
		}
		return nil
	}
	if call, ok := c.inflight[string(key)]; ok {
		c.mu.Unlock()
		<-call.done
		c.mu.Lock()
		outcome := obs.Hit
		if call.err == nil {
			c.hits++
		} else {
			c.misses++
			outcome = obs.Miss
		}
		c.mu.Unlock()
		if cfg.Observer != nil {
			cfg.Observer.Observe(obs.Event{Kind: obs.PlanCache, Code: outcome})
		}
		if call.err != nil {
			return call.err
		}
		dst.CopyFrom(&call.plan)
		return nil
	}
	call := &planCall{done: make(chan struct{})}
	skey := string(key)
	c.inflight[skey] = call
	c.misses++
	c.mu.Unlock()
	if cfg.Observer != nil {
		cfg.Observer.Observe(obs.Event{Kind: obs.PlanCache, Code: obs.Miss})
	}

	call.plan, call.err = Optimize(cfg, scn, f, k, n)
	close(call.done)

	c.mu.Lock()
	delete(c.inflight, skey)
	evicted := 0
	if call.err == nil {
		var entry Plan // the cache's own copy: no caller can reach it
		entry.CopyFrom(&call.plan)
		evicted = c.lru.Put(skey, entry)
		c.evictions += uint64(evicted)
	}
	c.mu.Unlock()
	for i := 0; i < evicted; i++ {
		if cfg.Observer != nil {
			cfg.Observer.Observe(obs.Event{Kind: obs.PlanCacheEvict})
		}
	}
	if call.err != nil {
		return call.err
	}
	dst.CopyFrom(&call.plan)
	return nil
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
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
	field(":", int64(cfg.MaxEvals))
	field(":", cfg.Seed)
	flag(":", cfg.DisableNWG)
	flag(":", cfg.RefineOmega)
	if cfg.SortedDiscount > 0 || cfg.RandomDiscount > 0 {
		// Sharing discounts reshape the scenario Optimize plans against;
		// quantized rates keep the key space small.
		dst = append(dst, " disc="...)
		dst = strconv.AppendFloat(dst, cfg.SortedDiscount, 'g', -1, 64)
		dst = append(dst, ':')
		dst = strconv.AppendFloat(dst, cfg.RandomDiscount, 'g', -1, 64)
	}
	if cfg.BackendKey != "" {
		// Shard membership and storage calibration decide which backend
		// serves a plan's accesses and at what measured price; fences,
		// recoveries and re-calibrations re-key.
		dst = append(dst, " backend="...)
		dst = append(dst, cfg.BackendKey...)
	}
	if fp := cfg.Observed.Key(); fp != "" {
		// Mid-query observations reshape the sample Optimize plans against,
		// exactly like the sharing discounts reshape costs; quantized values
		// keep the key space small and make repeat re-plans cache hits.
		dst = append(dst, ' ')
		dst = append(dst, fp...)
	}
	if cfg.Sample != nil {
		// A caller-supplied sample changes the estimator's input; identity
		// (not content) is the practical discriminator for shared datasets.
		dst = fmt.Appendf(dst, " sample=%p", cfg.Sample)
	}
	return dst
}
