package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/kit"
)

// ErrShardDown marks an access refused because the owning shard is
// fenced: its circuit (Options.Breaker) is open, or half-open with its one
// probe already in flight. The error reaches the engine as an ordinary
// access failure, so the session's resilience machinery (breakers →
// scenario change → re-plan/degrade) absorbs a lost shard exactly like a
// lost source — the answer degrades honestly instead of silently
// dropping the shard's objects.
var ErrShardDown = errors.New("cluster: shard down")

// Options tunes a Coordinator.
type Options struct {
	// Prefetch is the page size of each per-shard sorted cursor: how many
	// entries one shard round trip pulls ahead of the merge frontier.
	// Defaults to 16.
	Prefetch int
	// Breaker fences shards: FailureThreshold consecutive failed accesses
	// open a shard's circuit, and after Cooldown one half-open probe is let
	// through (access.Circuits; defaults 3 and 1s).
	Breaker access.BreakerConfig
}

// Coordinator presents a set of shards as one access.Backend in global
// object ids. Sorted pages are served from per-predicate k-way merges of
// the shard streams (lazy: shard cursors advance only when the merge
// frontier consumes them, pulling Prefetch entries per round trip);
// random and batched probes route to the owning shard via the same ring
// that partitioned the data. All methods are safe for concurrent use.
type Coordinator struct {
	shards   []Shard
	ring     *Ring
	n, m     int
	prefetch int

	fence *access.Circuits // one circuit per shard
	epoch atomic.Uint64
	up    atomic.Int64

	merges []mergeState

	stats stats
}

// mergeState is one predicate's scatter-gather merge: the globally
// sorted prefix materialized so far — a kit.Prefix (DESIGN.md §4, "Shared
// state") whose frontier fetch is the merge step, advance — and one
// cursor head per shard: a window over the shard's local sorted stream
// holding its prefetched page. heads are touched only inside that fetch,
// which the prefix runs one driver at a time, so they need no lock.
type mergeState struct {
	merged *kit.Prefix[access.Entry]
	heads  []access.Window
	bound  atomic.Uint64 // float64 bits of the unseen-score bound
}

// New builds a coordinator over the shards. Every shard must agree on
// the global object and predicate counts, and the local slices must add
// up to the whole dataset.
func New(shards []Shard, opts Options) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: coordinator requires at least one shard")
	}
	ring, err := NewRing(len(shards))
	if err != nil {
		return nil, err
	}
	n, m := shards[0].N(), shards[0].M()
	sum := 0
	for i, sh := range shards {
		if sh.N() != n || sh.M() != m {
			return nil, fmt.Errorf("cluster: shard %d reports %dx%d, shard 0 reports %dx%d", i, sh.N(), sh.M(), n, m)
		}
		sum += sh.LocalN()
	}
	if sum != n {
		return nil, fmt.Errorf("cluster: shard slices hold %d objects, dataset has %d", sum, n)
	}
	c := &Coordinator{
		shards:   shards,
		ring:     ring,
		n:        n,
		m:        m,
		prefetch: opts.Prefetch,
		fence:    access.NewCircuits(len(shards), opts.Breaker),
		merges:   make([]mergeState, m),
	}
	if c.prefetch <= 0 {
		c.prefetch = 16
	}
	c.up.Store(int64(len(shards)))
	for p := range c.merges {
		ms := &c.merges[p]
		ms.merged = kit.NewPrefix(func(ctx context.Context, from, want int, buf []access.Entry) ([]access.Entry, error) {
			return c.advance(ctx, p, ms, from, want, buf)
		})
		ms.heads = make([]access.Window, len(shards))
		ms.bound.Store(math.Float64bits(1))
	}
	return c, nil
}

// N returns the global object count.
func (c *Coordinator) N() int { return c.n }

// M returns the predicate count.
func (c *Coordinator) M() int { return c.m }

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Page implements access.Pager over the cluster: ranks inside the merged
// prefix are served without touching a shard (zero allocations), as much
// of it as buf holds; a rank at the frontier drives (or waits on) one
// scatter-gather round extending the merge through it, shared by every
// query needing it.
//
//topklint:hotpath
func (c *Coordinator) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	if pred < 0 || pred >= c.m || from < 0 || from >= c.n {
		return 0, fmt.Errorf("cluster: page of p%d at rank %d outside %d x %d", pred+1, from, c.n, c.m)
	}
	n, hit, err := c.merges[pred].merged.Read(ctx, from, buf)
	if err != nil {
		return 0, err
	}
	if hit { // the entry at from; a reader reports the rest it consumed
		c.stats.mergeHits.Add(1)
	}
	return n, nil
}

// Sorted implements access.Backend as a page of one.
func (c *Coordinator) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, c, pred, rank))
}

// Consumed implements access.ReadAheadCounter: read-ahead was served from
// the merged prefix, so each entry is a merge hit.
func (c *Coordinator) Consumed(_, n int) { c.stats.mergeHits.Add(uint64(n)) }

// advance is the merge step, pred's kit.Fetch: it appends the merged
// rows of ranks from..rank to buf — refill dry shard cursors
// (concurrently when several are dry), then pop the maximum head until
// the rank is covered. Rows popped before a failed refill are returned
// with the error, so the prefix keeps what was paid for.
func (c *Coordinator) advance(ctx context.Context, pred int, ms *mergeState, from, rank int, buf []access.Entry) ([]access.Entry, error) {
	for from+len(buf) <= rank {
		var needs []int
		for i := range ms.heads {
			if h := &ms.heads[i]; h.Len() == 0 && h.End() < c.shards[i].LocalN() {
				needs = append(needs, i)
			}
		}
		if len(needs) > 0 {
			if err := c.refill(ctx, pred, ms, needs); err != nil {
				return buf, err
			}
		}
		var err error
		if buf, err = c.pop(ms, buf, from, rank); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// refill pulls the next page for each listed shard cursor, fanning out
// concurrently when more than one is dry.
func (c *Coordinator) refill(ctx context.Context, pred int, ms *mergeState, needs []int) error {
	if len(needs) == 1 {
		return c.fill(ctx, pred, ms, needs[0])
	}
	errs := make([]error, len(needs))
	var wg sync.WaitGroup
	for j, i := range needs {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			errs[j] = c.fill(ctx, pred, ms, i)
		}(j, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fill fetches shard i's next page of pred's local sorted stream into its
// cursor head: one read-until-full loop, whatever a shard serves per call.
// Entries fetched before a mid-page failure are kept — they were paid for
// — and the cursor resumes after them on retry.
func (c *Coordinator) fill(ctx context.Context, pred int, ms *mergeState, i int) error {
	if !c.fence.Acquire(i) {
		return fmt.Errorf("%w: shard %d fenced, sorted stream for p%d unavailable", ErrShardDown, i, pred)
	}
	h := &ms.heads[i]
	err := h.Fill(ctx, c.shards[i], pred, c.shards[i].LocalN(), c.prefetch)
	if n := h.Len(); n > 0 {
		c.stats.shardFetches.Add(1)
		c.stats.fetchedEntries.Add(uint64(n))
	}
	c.settle(ctx, i, err == nil)
	if err != nil {
		return fmt.Errorf("cluster: shard %d sorted p%d rank %d: %w", i, pred, h.End(), err)
	}
	return nil
}

// pop merges available heads into out, which starts at rank from, until
// rank is covered, a dry non-eof head blocks further popping (needs a
// refill), or every stream is exhausted (an error).
//
//topklint:hotpath
func (c *Coordinator) pop(ms *mergeState, out []access.Entry, from, rank int) ([]access.Entry, error) {
	defer c.updateBound(ms)
	for from+len(out) <= rank {
		best := -1
		for i := range ms.heads {
			h := &ms.heads[i]
			if h.Len() > 0 {
				if best < 0 || entryLess(ms.heads[best].Peek(), h.Peek()) {
					best = i
				}
			} else if h.End() < c.shards[i].LocalN() {
				// A dry head, its stream not at an end, might hold the true
				// maximum: stop and refill before committing any more rows.
				return out, nil
			}
		}
		if best < 0 {
			return out, fmt.Errorf("cluster: merge exhausted at rank %d of %d", from+len(out), c.n)
		}
		out = append(out, ms.heads[best].Next())
		c.stats.mergedRows.Add(1)
	}
	return out, nil
}

// entryLess orders merge candidates: a loses to b when b scores higher,
// or ties with a higher global id — the same tie-break as a single-node
// sorted list, which is what makes the merged stream byte-identical.
//
//topklint:hotpath
func entryLess(a, b access.Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Obj < b.Obj
}

// updateBound recomputes pred's unseen-score bound: the maximum over
// shards of the next entry each could still contribute — the window's
// head when one is buffered, else ℓ_i, the last score seen from that
// shard (1 before its first page), and nothing once its stream has ended.
// pop runs only once every dry head's refill has landed, so a dry head
// short of its end still holds the page it drained. Rows the merge has not
// popped yet are guaranteed to score at or below this bound — every row
// beyond the merged prefix once the popping driver has published — which
// is what lets NRA-style consumers stop before draining the shard streams.
//
//topklint:hotpath
func (c *Coordinator) updateBound(ms *mergeState) {
	bound := 0.0
	for i := range ms.heads {
		h := &ms.heads[i]
		s := 0.0
		switch last, seen := h.Last(); {
		case h.Len() > 0:
			s = h.Peek().Score
		case h.End() >= c.shards[i].LocalN():
		case seen:
			s = last.Score
		default:
			s = 1
		}
		if s > bound {
			bound = s
		}
	}
	ms.bound.Store(math.Float64bits(bound))
}

// UnseenBound returns the current global upper bound on any score not
// yet surfaced by pred's merged stream.
func (c *Coordinator) UnseenBound(pred int) float64 {
	return math.Float64frombits(c.merges[pred].bound.Load())
}

// Random implements access.Backend: the probe routes to the shard owning
// the object on the same ring that partitioned the data.
//
//topklint:hotpath
func (c *Coordinator) Random(ctx context.Context, pred, obj int) (float64, error) {
	if pred < 0 || pred >= c.m || obj < 0 || obj >= c.n {
		return 0, fmt.Errorf("cluster: probe of p%d object %d outside %d x %d", pred+1, obj, c.n, c.m)
	}
	i := c.ring.Owner(obj)
	if !c.fence.Acquire(i) {
		return 0, fmt.Errorf("%w: shard %d fenced, probe for object %d refused", ErrShardDown, i, obj)
	}
	score, err := c.shards[i].Random(ctx, pred, obj)
	c.settle(ctx, i, err == nil)
	if err != nil {
		return 0, fmt.Errorf("cluster: shard %d random p%d obj %d: %w", i, pred, obj, err)
	}
	c.stats.randomRouted.Add(1)
	return score, nil
}

// BatchRandom implements access.BatchBackend over the cluster: probes
// group by owning shard (group commit per shard), the groups fan out
// concurrently, and each shard serves its group in one round trip when
// it speaks batch, else probe by probe. The batch fails as a unit, like
// a single backend's BatchRandom.
func (c *Coordinator) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	if len(preds) != len(objs) {
		return nil, fmt.Errorf("cluster: batch has %d predicates but %d objects", len(preds), len(objs))
	}
	if len(preds) == 0 {
		return []float64{}, nil
	}
	owners := make([]int, len(objs))
	counts := make([]int, len(c.shards))
	for j, obj := range objs {
		if pred := preds[j]; pred < 0 || pred >= c.m || obj < 0 || obj >= c.n {
			return nil, fmt.Errorf("cluster: probe of p%d object %d outside %d x %d", pred+1, obj, c.n, c.m)
		}
		o := c.ring.Owner(obj)
		owners[j] = o
		counts[o]++
	}
	out := make([]float64, len(preds))
	var wg sync.WaitGroup
	errs := make([]error, len(c.shards))
	groups := 0
	for s := range c.shards {
		if counts[s] == 0 {
			continue
		}
		groups++
		idx := make([]int, 0, counts[s])
		for j := range objs {
			if owners[j] == s {
				idx = append(idx, j)
			}
		}
		wg.Add(1)
		go func(s int, idx []int) {
			defer wg.Done()
			errs[s] = c.shardBatch(ctx, s, preds, objs, idx, out)
		}(s, idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.stats.batchGroups.Add(uint64(groups))
	return out, nil
}

// shardBatch serves one shard's slice of a batched probe set, writing
// scores into the shared result at their original positions.
func (c *Coordinator) shardBatch(ctx context.Context, s int, preds, objs, idx []int, out []float64) error {
	if !c.fence.Acquire(s) {
		return fmt.Errorf("%w: shard %d fenced, batched probes refused", ErrShardDown, s)
	}
	sh := c.shards[s]
	if bb, ok := sh.(access.BatchBackend); ok {
		sp := make([]int, len(idx))
		so := make([]int, len(idx))
		for j, orig := range idx {
			sp[j] = preds[orig]
			so[j] = objs[orig]
		}
		scores, err := bb.BatchRandom(ctx, sp, so)
		if err != nil {
			c.settle(ctx, s, false)
			return fmt.Errorf("cluster: shard %d batch of %d probes: %w", s, len(idx), err)
		}
		for j, orig := range idx {
			out[orig] = scores[j]
		}
	} else {
		for _, orig := range idx {
			score, err := sh.Random(ctx, preds[orig], objs[orig])
			if err != nil {
				c.settle(ctx, s, false)
				return fmt.Errorf("cluster: shard %d random p%d obj %d: %w", s, preds[orig], objs[orig], err)
			}
			out[orig] = score
		}
	}
	c.settle(ctx, s, true)
	return nil
}

// settle reports the outcome of an access the fence let through to shard
// i. A failure under a caller's context that has ended says nothing about
// the shard — the session's breakers follow the same rule — so it only
// releases the grant. A fence (closed → open) and a recovery (half-open →
// closed) bump the membership epoch and move the shards-up count; open ↔
// half-open moves neither, as a half-open shard still reads as down.
func (c *Coordinator) settle(ctx context.Context, i int, ok bool) {
	if !ok {
		if ctx.Err() != nil {
			c.fence.Release(i)
			return
		}
		c.stats.shardFailures.Add(1)
	}
	switch from, to := c.fence.Record(i, ok); {
	case from == access.BreakerClosed && to == access.BreakerOpen:
		c.epoch.Add(1)
		c.up.Add(-1)
	case from == access.BreakerHalfOpen && to == access.BreakerClosed:
		c.epoch.Add(1)
		c.up.Add(1)
	}
}
