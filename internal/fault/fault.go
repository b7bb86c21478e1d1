// Package fault injects deterministic failures into an access.Backend for
// chaos testing. The wrapper reproduces the pathologies of real Web
// sources — transient errors, latency spikes, hangs, hard outages, and
// flapping availability — from a fixed seed, so every chaos run is exactly
// replayable: same seed, same accesses, same faults.
//
// Faults are configured per (predicate, access kind). Decisions are drawn
// from a seeded *rand.Rand plus per-capability access counters, both
// guarded by a mutex; the injected delay/hang itself happens outside the
// lock so concurrent accesses to healthy predicates never stall behind a
// slow one.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/access"
)

// ErrInjected marks every error produced by the injector, so tests and
// resilience code can tell injected faults from genuine backend bugs with
// errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// PredFault configures the failure behaviour of one predicate. The zero
// value injects nothing. Rates are probabilities in [0, 1] drawn
// independently per access; windows count accesses to the predicate
// (across both kinds), so a deterministic access sequence hits an outage
// at a deterministic point.
type PredFault struct {
	// ErrorRate is the probability an access fails immediately with
	// ErrInjected.
	ErrorRate float64
	// SlowRate is the probability an access sleeps SlowDelay before
	// succeeding — a latency spike, not a failure (unless the caller's
	// per-access deadline converts it into one).
	SlowRate float64
	// SlowDelay is the injected latency for a slow access (default 20ms
	// when SlowRate > 0).
	SlowDelay time.Duration
	// HangRate is the probability an access blocks until its context is
	// cancelled, then fails with the context error. A hang only ever
	// resolves through the caller's deadline.
	HangRate float64
	// OutageFrom/OutageTo delimit a hard outage window in access ordinals
	// (half-open, 0-based): accesses From <= n < To fail with ErrInjected.
	// To <= From means no outage; To < 0 means the outage never ends.
	OutageFrom, OutageTo int
	// FlapPeriod > 0 alternates availability: each run of FlapPeriod
	// consecutive accesses flips between healthy and failing, starting
	// healthy.
	FlapPeriod int
}

// Config seeds and scopes the injector.
type Config struct {
	// Seed drives the injector's private *rand.Rand. Equal seeds and equal
	// access sequences produce equal fault sequences.
	Seed int64
	// Preds maps predicate index to its fault profile; absent predicates
	// are healthy.
	Preds map[int]PredFault
}

// Backend wraps an access.Backend, injecting configured faults before
// delegating. It serves one sorted entry per page: a fault schedule counts
// accesses, so each entry passes the gate on its own, in the order it is
// consumed. It is safe for concurrent use.
type Backend struct {
	inner access.Backend
	pages access.Pager // inner's paged read

	mu    sync.Mutex
	rng   *rand.Rand
	preds map[int]PredFault
	count map[int]int // accesses issued per predicate, both kinds
}

// Wrap builds the fault-injecting wrapper around a backend.
func Wrap(inner access.Backend, cfg Config) *Backend {
	preds := make(map[int]PredFault, len(cfg.Preds))
	for p, f := range cfg.Preds {
		if f.SlowRate > 0 && f.SlowDelay <= 0 {
			f.SlowDelay = 20 * time.Millisecond
		}
		preds[p] = f
	}
	return &Backend{
		inner: inner,
		pages: access.Pages(inner),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		preds: preds,
		count: make(map[int]int),
	}
}

// Unwrap returns the wrapped backend (the access.As convention).
func (b *Backend) Unwrap() access.Backend { return b.inner }

// N returns the object count of the wrapped backend.
func (b *Backend) N() int { return b.inner.N() }

// M returns the predicate count of the wrapped backend.
func (b *Backend) M() int { return b.inner.M() }

// action is the outcome of one fault decision.
type action int

const (
	actPass action = iota
	actError
	actSlow
	actHang
)

// decide draws the fault decision for one access to pred. The lock covers
// only the rng and counters; sleeping and hanging happen in the caller.
func (b *Backend) decide(pred int) (action, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.preds[pred]
	if !ok {
		return actPass, 0
	}
	n := b.count[pred]
	b.count[pred] = n + 1
	if f.OutageTo < 0 && n >= f.OutageFrom {
		return actError, 0
	}
	if f.OutageFrom < f.OutageTo && n >= f.OutageFrom && n < f.OutageTo {
		return actError, 0
	}
	if f.FlapPeriod > 0 && (n/f.FlapPeriod)%2 == 1 {
		return actError, 0
	}
	// Draw the random gates in a fixed order so the consumed rng stream is
	// identical regardless of which gate fires.
	hang := b.rng.Float64() < f.HangRate
	fail := b.rng.Float64() < f.ErrorRate
	slow := b.rng.Float64() < f.SlowRate
	switch {
	case hang:
		return actHang, 0
	case fail:
		return actError, 0
	case slow:
		return actSlow, f.SlowDelay
	default:
		return actPass, 0
	}
}

// inject applies the decided fault. It returns a non-nil error when the
// access must fail without reaching the inner backend.
func (b *Backend) inject(ctx context.Context, kind access.Kind, pred int) error {
	act, delay := b.decide(pred)
	switch act {
	case actError:
		return fmt.Errorf("%w: %s access on p%d", ErrInjected, kind, pred+1)
	case actSlow:
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("%w: %s access on p%d cut off mid-spike: %w", ErrInjected, kind, pred+1, ctx.Err())
		}
	case actHang:
		<-ctx.Done()
		return fmt.Errorf("%w: %s access on p%d hung: %w", ErrInjected, kind, pred+1, ctx.Err())
	default:
		return nil
	}
}

// Page injects one access's faults, then serves the one entry at rank from
// from the wrapped backend.
func (b *Backend) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	if err := b.inject(ctx, access.SortedAccess, pred); err != nil {
		return 0, err
	}
	return b.pages.Page(ctx, pred, from, buf[:1])
}

// Sorted implements access.Backend as a page of one.
func (b *Backend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, b, pred, rank))
}

// Random injects faults, then delegates to the wrapped backend.
func (b *Backend) Random(ctx context.Context, pred, obj int) (float64, error) {
	if err := b.inject(ctx, access.RandomAccess, pred); err != nil {
		return 0, err
	}
	return b.inner.Random(ctx, pred, obj)
}
