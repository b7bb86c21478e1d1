// Package share is the cross-query access-sharing layer: a concurrency-
// safe access.Backend wrapper that lets many simultaneous queries against
// the same sources amortize their source accesses.
//
// The paper's cost model (Eq. 1) prices individual source accesses; the
// optimizer minimizes them per query. Under production traffic the same
// sorted prefixes and probed scores are fetched over and over by
// near-identical queries, so the next lever after per-query optimization
// is aggregate: share the access results themselves. The layer has three
// parts:
//
//   - A shared sorted-access cursor per backend predicate. Concurrent
//     queries attach to one descending stream: a query needing depth d
//     reads the already-fetched prefix without touching the source, and
//     only the query driving the deepest frontier performs new backend
//     accesses (frontier fetches are singleflighted, so n queries racing
//     at the same depth cost one source access).
//   - A random-access score cache: a sharded LRU keyed by
//     (predicate, object) with singleflight on concurrent identical
//     probes, so a score probed by one query is free for every later one.
//   - Batched random access: when the wrapped backend advertises the
//     access.BatchBackend capability (the websim client does, via POST
//     /batch), cache misses from concurrent queries coalesce into one
//     round trip of up to MaxBatch probes, amortizing per-request latency
//     across queries the way the parallel executor amortizes it within one.
//
// Billing is deliberately untouched: the layer sits below access.Session,
// so every query's ledger still prices its logical accesses exactly as if
// it ran alone — Framework NC's choice accounting and the trace==ledger
// invariant hold unchanged. What sharing reduces is the aggregate number
// of accesses that actually reach the sources, reported by Stats.
//
// The layer composes with the resilience layer: attach the service's
// BreakerSet with Options.Breakers and a capability's breaker opening
// drops the shared state for that predicate (the cursor for sorted, the
// cached scores for random), so recovery never serves results fetched
// from a source that has since been declared unhealthy.
package share

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/kit"
	"repro/internal/obs"
)

// DefaultScoreCapacity bounds the score cache when Options.ScoreCapacity
// is zero: entries, across all shards.
const DefaultScoreCapacity = 1 << 16

// Options tunes a Layer.
type Options struct {
	// ScoreCapacity bounds the random-access score cache in entries
	// (DefaultScoreCapacity when 0; negative disables score caching).
	ScoreCapacity int
	// MaxBatch enables batched random access: up to MaxBatch concurrent
	// cache misses are coalesced into one BatchRandom round trip. Values
	// <= 1 disable batching, as does a backend without the
	// access.BatchBackend capability.
	MaxBatch int
	// Breakers, when non-nil, ties shared state to the circuit breakers:
	// a breaker opening for (kind, predicate) invalidates that predicate's
	// shared cursor (sorted) or cached scores (random). Share the same set
	// the queries' Resilience attachments use.
	Breakers *access.BreakerSet
	// Metrics, when non-nil, exposes the layer's counters as the
	// topk_share_* series of the registry, read at scrape time.
	Metrics *obs.Registry
}

// Layer is the sharing layer. It implements access.Backend over the
// wrapped backend and is safe for concurrent use by any number of
// sessions. Construct one Layer per backend (it is keyed by the backend's
// own predicate space) and share it across queries.
type Layer struct {
	backend access.Backend
	batch   access.BatchBackend // nil unless enabled and supported
	n, m    int

	cursors []*kit.Prefix[access.Entry]
	scores  *scoreCache // nil when disabled
	batcher *batcher    // nil unless batching enabled

	breakers *access.BreakerSet
	brMu     sync.Mutex               // serializes breaker-state folds
	brGen    atomic.Uint64            // last breaker generation folded into the caches
	brState  [2][]access.BreakerState // last observed state per (kind, pred); guarded by brMu

	stats stats
}

// New builds a sharing layer over the backend. The returned Layer is the
// Backend queries should run against, whatever columns each selects
// (Query.Cols): queries share the layer's cursors and caches for the
// predicates they have in common, as the keying is (backend, backend
// predicate), exactly the granularity the sources see.
func New(b access.Backend, opts Options) *Layer {
	l := &Layer{
		backend:  b,
		n:        b.N(),
		m:        b.M(),
		cursors:  make([]*kit.Prefix[access.Entry], b.M()),
		breakers: opts.Breakers,
	}
	pages := access.Pages(b)
	for pred := range l.cursors {
		// The shared stream of one predicate is a kit.Prefix (DESIGN.md §4,
		// "Shared state") whose frontier fetch is one backend page, sized to
		// the rank asked: the entries from the frontier through it, all of
		// them consumed — the prefix keeps every one.
		l.cursors[pred] = kit.NewPrefix(func(ctx context.Context, from, want int, buf []access.Entry) ([]access.Entry, error) {
			buf = slices.Grow(buf, want-from+1)[:want-from+1]
			n, err := pages.Page(ctx, pred, from, buf)
			l.stats.backendSorted.Add(uint64(max(n, 1))) // a failed page reached the backend too
			access.Consumed(b, pred, n-1)
			return buf[:n], err
		})
	}
	if opts.ScoreCapacity >= 0 {
		capacity := opts.ScoreCapacity
		if capacity == 0 {
			capacity = DefaultScoreCapacity
		}
		l.scores = newScoreCache(capacity)
	}
	if bb, ok := b.(access.BatchBackend); ok && opts.MaxBatch > 1 {
		l.batch = bb
		l.batcher = newBatcher(l, opts.MaxBatch)
	}
	if opts.Metrics != nil {
		l.stats.register(opts.Metrics)
	}
	if l.breakers != nil {
		l.brGen.Store(l.breakers.Generation())
		for kind := range l.brState {
			l.brState[kind] = make([]access.BreakerState, l.m)
			for pred := 0; pred < l.m; pred++ {
				l.brState[kind][pred] = l.breakers.State(access.Kind(kind), pred)
			}
		}
	}
	return l
}

// N returns the object count of the wrapped backend.
func (l *Layer) N() int { return l.n }

// M returns the predicate count of the wrapped backend.
func (l *Layer) M() int { return l.m }

// Unwrap returns the wrapped backend (the access.As convention).
func (l *Layer) Unwrap() access.Backend { return l.backend }

// Batching reports whether batched random access is active.
func (l *Layer) Batching() bool { return l.batcher != nil }

// Page implements access.Pager: ranks inside the shared prefix are served
// from it without a source access, as much of it as buf holds; a rank at
// the frontier drives (or waits on) exactly one backend page shared by
// every query needing it, and returns the entry asked for. A rank deeper
// than the frontier (possible after an invalidation dropped the prefix
// mid-session) is covered by one page read through it. Page counts the
// entry at rank from as a hit or a miss; a reader reports the rest it
// consumed (Consumed).
//
//topklint:hotpath
func (l *Layer) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	if pred < 0 || pred >= l.m || from < 0 || from >= l.n {
		return 0, fmt.Errorf("share: Page(pred=%d, from=%d) out of range (n=%d, m=%d)", pred, from, l.n, l.m)
	}
	l.syncBreakers()
	n, hit, err := l.cursors[pred].Read(ctx, from, buf)
	if err != nil {
		return 0, err
	}
	if hit {
		l.stats.sortedHits.Add(1)
	} else {
		l.stats.sortedMisses.Add(1)
	}
	return n, nil
}

// Sorted implements access.Backend as a page of one.
func (l *Layer) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, l, pred, rank))
}

// Consumed implements access.ReadAheadCounter: read-ahead was served from
// the shared prefix, so each entry is a hit.
func (l *Layer) Consumed(_, n int) { l.stats.sortedHits.Add(uint64(n)) }

// Random implements access.Backend: cached scores are served without a
// source access; misses are singleflighted and, when batching is enabled,
// coalesced with concurrent misses into one round trip.
//
//topklint:hotpath
func (l *Layer) Random(ctx context.Context, pred, obj int) (float64, error) {
	l.syncBreakers()
	if l.scores == nil {
		l.stats.randomMisses.Add(1)
		l.stats.backendRandom.Add(1)
		return l.backend.Random(ctx, pred, obj)
	}
	key := probeKey(pred, obj)
	shard := l.scores.shard(key)
	if score, ok := shard.get(key); ok {
		l.stats.randomHits.Add(1)
		return score, nil
	}
	l.stats.randomMisses.Add(1)
	if l.batcher != nil {
		return l.batcher.probe(ctx, pred, obj)
	}
	return l.probeDirect(ctx, shard, key, pred, obj)
}

// probeDirect resolves one cache miss with a singleflighted direct
// backend access.
func (l *Layer) probeDirect(ctx context.Context, sh *scoreShard, key uint64, pred, obj int) (float64, error) {
	for {
		score, cached, call, gen := sh.begin(key)
		if cached {
			l.stats.coalesced.Add(1)
			return score, nil
		}
		if call == nil {
			// This query drives the access; concurrent identical probes
			// block on the in-flight call and share the result.
			score, err := l.backend.Random(ctx, pred, obj)
			l.stats.backendRandom.Add(1)
			sh.commit(key, gen, score, err)
			return score, err
		}
		select {
		case <-call.done:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		if call.err == nil {
			l.stats.coalesced.Add(1)
			return call.score, nil
		}
		// The driving probe failed; retry (and possibly become the driver)
		// under this query's own context.
	}
}

// syncBreakers folds breaker state changes into the shared caches: any
// predicate whose sorted circuit changed state has its cursor dropped,
// any whose random circuit changed has its cached scores dropped.
// Transitions, not just the open state, trigger the drop — a full
// open→cooldown→closed cycle between two accesses must still invalidate,
// because entries fetched before the outage may be stale afterwards. With
// no breaker set attached — or no state change since the last access —
// this is one atomic load.
func (l *Layer) syncBreakers() {
	if l.breakers == nil {
		return
	}
	gen := l.breakers.Generation()
	if gen == l.brGen.Load() {
		return
	}
	l.brMu.Lock()
	defer l.brMu.Unlock()
	if gen = l.breakers.Generation(); gen == l.brGen.Load() {
		return
	}
	l.brGen.Store(gen)
	for pred := 0; pred < l.m; pred++ {
		if st := l.breakers.State(access.SortedAccess, pred); st != l.brState[access.SortedAccess][pred] {
			l.brState[access.SortedAccess][pred] = st
			// An in-flight frontier fetch cannot publish into the fresh prefix.
			l.cursors[pred].Drop()
			l.stats.invalidations.Add(1)
		}
		if st := l.breakers.State(access.RandomAccess, pred); st != l.brState[access.RandomAccess][pred] {
			l.brState[access.RandomAccess][pred] = st
			if l.scores != nil {
				l.scores.invalidate(func(key uint64, _ float64) bool { return int(key>>32) == pred })
				l.stats.invalidations.Add(1)
			}
		}
	}
}

// Invalidate drops every shared cursor and cached score. Operational
// escape hatch (the breaker hook handles degradation automatically).
func (l *Layer) Invalidate() {
	for _, c := range l.cursors {
		c.Drop()
	}
	if l.scores != nil {
		l.scores.invalidate(func(uint64, float64) bool { return true })
	}
}

// Depth reports how many entries of predicate pred's descending list the
// shared cursor currently holds (0 for a predicate out of range).
func (l *Layer) Depth(pred int) int {
	if pred < 0 || pred >= l.m {
		return 0
	}
	return l.cursors[pred].Len()
}
