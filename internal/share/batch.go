package share

import (
	"context"
	"fmt"
	"sync"
)

// batcher coalesces concurrent random-access cache misses into
// BatchRandom round trips of up to max probes. It deliberately has no
// linger timer: batches form from natural concurrency (the first miss
// becomes the flusher and drains the queue; misses arriving while a
// round trip is in flight accumulate into the next one — the group-commit
// pattern), so an isolated query pays no added latency and a busy service
// amortizes automatically.
type batcher struct {
	l   *Layer
	max int

	mu       sync.Mutex
	queue    []*pendingProbe          // not yet picked up by a flush
	byKey    map[uint64]*pendingProbe // queued or in-flight, for singleflight joins
	flushing bool
}

// pendingProbe is one queued random access and the call its waiters share.
type pendingProbe struct {
	key       uint64
	pred, obj int
	gen       uint64 // score-shard generation at enqueue, guards late caching
	call      *probeCall
}

func newBatcher(l *Layer, max int) *batcher {
	return &batcher{l: l, max: max, byKey: make(map[uint64]*pendingProbe)}
}

// probe resolves one cache miss through the batch queue: identical
// concurrent probes join one pending entry, and whoever finds no flush in
// progress drains the queue for everyone.
func (b *batcher) probe(ctx context.Context, pred, obj int) (float64, error) {
	key := probeKey(pred, obj)
	sh := b.l.scores.shard(key)
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if score, ok := sh.get(key); ok {
			// Resolved by a batch that completed between the miss and here.
			b.l.stats.coalesced.Add(1)
			return score, nil
		}
		gen := sh.generation()
		b.mu.Lock()
		p, joined := b.byKey[key]
		if !joined {
			p = &pendingProbe{key: key, pred: pred, obj: obj, gen: gen, call: &probeCall{done: make(chan struct{})}}
			b.byKey[key] = p
			b.queue = append(b.queue, p)
		}
		flush := false
		if !b.flushing {
			b.flushing = true
			flush = true
		}
		b.mu.Unlock()
		if joined {
			b.l.stats.coalesced.Add(1)
		}
		if flush {
			b.drain(ctx)
		}
		select {
		case <-p.call.done:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		if p.call.err == nil {
			return p.call.score, nil
		}
		// The round trip this probe rode failed; retry under this query's
		// own context (the retry may become the next flusher).
	}
}

// drain flushes batches until the queue is empty, then releases the
// flusher role. The flusher serves probes queued by other queries too —
// bounded unfairness that keeps the design timer-free.
func (b *batcher) drain(ctx context.Context) {
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.flushing = false
			b.mu.Unlock()
			return
		}
		n := min(b.max, len(b.queue))
		batch := make([]*pendingProbe, n)
		copy(batch, b.queue[:n])
		rest := copy(b.queue, b.queue[n:])
		for i := rest; i < len(b.queue); i++ {
			b.queue[i] = nil
		}
		b.queue = b.queue[:rest]
		b.mu.Unlock()

		preds := make([]int, n)
		objs := make([]int, n)
		for i, p := range batch {
			preds[i], objs[i] = p.pred, p.obj
		}
		scores, err := b.l.batch.BatchRandom(ctx, preds, objs)
		if err == nil && len(scores) != n {
			err = fmt.Errorf("share: batch backend returned %d scores for %d probes", len(scores), n)
		}
		b.l.stats.backendRandom.Add(uint64(n))
		b.l.stats.batchedProbes.Add(uint64(n))
		b.l.stats.batches.Add(1)

		b.mu.Lock()
		for _, p := range batch {
			// A retry may have re-registered the key after a failed earlier
			// round; only remove our own entry.
			if b.byKey[p.key] == p {
				delete(b.byKey, p.key)
			}
		}
		b.mu.Unlock()
		for i, p := range batch {
			if err == nil {
				b.l.scores.shard(p.key).put(p.key, p.gen, scores[i])
				p.call.score = scores[i]
			} else {
				p.call.err = err
			}
			close(p.call.done)
		}
	}
}
