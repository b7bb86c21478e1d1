// Package kit holds the shared state the backend layers have in common:
// Prefix, the append-only head of a descending list that concurrent
// readers extend one singleflight fetch at a time; LRU, an intrusive
// least-recently-used map; and Clock, the one source of time for every
// timeout, cooldown and TTL. A leaf package (standard library only): the
// layers bring their own entry types, fetchers, counters and locks.
package kit

import (
	"context"
	"errors"
	"sync"
)

// Fetch extends a Prefix. One driver at a time calls it with the prefix
// length from and the rank want it is after; it appends the entries of
// ranks from, from+1, ... to buf — at least one, up to or past want as it
// sees fit. Entries returned alongside an error are still published:
// whatever the fetcher paid for is kept.
type Fetch[E any] func(ctx context.Context, from, want int, buf []E) ([]E, error)

// Prefix is the shared prefix of one descending list: the entries fetched
// so far, readable by any number of goroutines, plus the singleflight
// slot serializing the fetch that extends the frontier. The mutex is never
// held across a fetch: the driver releases it, fetches and relocks to
// publish, while waiters block on the done channel under their own
// context and then re-check — a failed driver reports its own error, a
// waiter never inherits it. State the fetcher keeps between calls needs
// no lock: only the driver runs it.
type Prefix[E any] struct {
	fetch Fetch[E]

	mu      sync.Mutex
	gen     uint64 // bumped by Drop; a fetch begun before it does not publish
	entries []E
	pending chan struct{} // non-nil while a driver is fetching; closed when it has published
	scratch []E           // the fetch buffer, owned by the driver holding pending
}

// NewPrefix returns an empty prefix extended by fetch.
func NewPrefix[E any](fetch Fetch[E]) *Prefix[E] {
	return &Prefix[E]{fetch: fetch}
}

// One instantiation of each hit path: topklint's hotpathalloc reads the
// compiler's escape diagnostics package by package, and a generic body
// has none until something in its own package instantiates it.
var (
	_ = (*Prefix[int]).Read
	_ = GetBytes[int]
)

var errNoProgress = errors.New("kit: prefix fetch returned no entries")

// Read copies the entries of ranks from, from+1, ... into buf (from >= 0,
// buf non-empty) and returns how many it copied, at least one. When from
// lies beyond the frontier, the prefix is first extended through it by one
// fetch asked for rank from. hit reports that this caller drove no fetch:
// the entries were already there, or a concurrent driver's fetch covered
// them, and Read copies as many as the prefix holds. A caller that drove a
// fetch gets only the entry at from — what others publish meanwhile is
// theirs to count.
//
//topklint:hotpath
func (p *Prefix[E]) Read(ctx context.Context, from int, buf []E) (n int, hit bool, err error) {
	hit = true
	for {
		p.mu.Lock()
		if from < len(p.entries) {
			if !hit {
				buf = buf[:1]
			}
			n = copy(buf, p.entries[from:])
			p.mu.Unlock()
			return n, hit, nil
		}
		if done := p.pending; done != nil {
			p.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return 0, false, ctx.Err()
			}
			// Re-check: the fetch may have covered from, failed, stopped
			// short or been dropped — in which case this caller drives.
			continue
		}
		//topklint:allow hotpathalloc frontier miss pays a source round trip; one done channel is noise against it
		done := make(chan struct{})
		p.pending = done
		frontier, gen, scratch := len(p.entries), p.gen, p.scratch[:0]
		p.mu.Unlock()

		hit = false
		page, err := p.fetch(ctx, frontier, from, scratch)
		p.mu.Lock()
		if p.gen == gen {
			p.entries = append(p.entries, page...)
		}
		p.scratch, p.pending = page, nil
		p.mu.Unlock()
		close(done)
		if err == nil && len(page) == 0 {
			err = errNoProgress
		}
		if err != nil {
			return 0, false, err
		}
	}
}

// Len returns how many entries the prefix holds.
func (p *Prefix[E]) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Drop empties the prefix. A fetch in flight completes but does not
// publish into the fresh generation; its driver and waiters start over
// from rank 0 — so Drop is for a fetcher that reads wherever from says,
// not one that keeps a position of its own.
func (p *Prefix[E]) Drop() {
	p.mu.Lock()
	p.gen++
	p.entries = nil
	p.mu.Unlock()
}
