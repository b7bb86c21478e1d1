// Package fault injects deterministic failures into an access.Backend for
// chaos testing. The wrapper reproduces the pathologies of real Web
// sources — transient errors, latency spikes, hangs, hard outages, and
// flapping availability — from a fixed seed, so every chaos run is exactly
// replayable: same seed, same accesses, same faults.
//
// Faults are configured per predicate. A Schedule draws each access's
// Verdict from a seeded *rand.Rand plus per-predicate access counters,
// both guarded by a mutex; the injected delay/hang itself happens outside
// the lock so concurrent accesses to healthy predicates never stall behind
// a slow one. The same Schedule gates websim's server, so one profile and
// one seed give one fault sequence in-process and over HTTP or the wire.
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

// Schedule is the decision half of the injector: one seeded verdict
// stream over per-predicate profiles. Backend applies it in-process; a
// websim server applies it once per request or wire frame. It is safe
// for concurrent use.
type Schedule struct {
	mu    sync.Mutex
	rng   *rand.Rand
	preds map[int]PredFault
	count map[int]int // accesses decided per predicate, both kinds
}

// NewSchedule seeds the verdict stream of cfg.
func NewSchedule(cfg Config) *Schedule {
	preds := make(map[int]PredFault, len(cfg.Preds))
	for p, f := range cfg.Preds {
		if f.SlowRate > 0 && f.SlowDelay <= 0 {
			f.SlowDelay = 20 * time.Millisecond
		}
		preds[p] = f
	}
	return &Schedule{
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		preds: preds,
		count: make(map[int]int),
	}
}

// action is the outcome of one fault decision.
type action int

const (
	actPass action = iota
	actError
	actSlow
	actHang
)

// Verdict is what one access suffers before it may proceed.
type Verdict struct {
	act   action
	delay time.Duration
}

// Decide draws the verdict for the next access to pred. The lock covers
// only the rng and counters; Inject sleeps and hangs outside it.
func (s *Schedule) Decide(pred int) Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.preds[pred]
	if !ok {
		return Verdict{}
	}
	n := s.count[pred]
	s.count[pred] = n + 1
	if f.OutageTo < 0 && n >= f.OutageFrom {
		return Verdict{act: actError}
	}
	if f.OutageFrom < f.OutageTo && n >= f.OutageFrom && n < f.OutageTo {
		return Verdict{act: actError}
	}
	if f.FlapPeriod > 0 && (n/f.FlapPeriod)%2 == 1 {
		return Verdict{act: actError}
	}
	// Draw the random gates in a fixed order so the consumed rng stream is
	// identical regardless of which gate fires.
	hang := s.rng.Float64() < f.HangRate
	fail := s.rng.Float64() < f.ErrorRate
	slow := s.rng.Float64() < f.SlowRate
	switch {
	case hang:
		return Verdict{act: actHang}
	case fail:
		return Verdict{act: actError}
	case slow:
		return Verdict{act: actSlow, delay: f.SlowDelay}
	default:
		return Verdict{}
	}
}

// Hangs reports whether the verdict holds its access until ctx ends.
func (v Verdict) Hangs() bool { return v.act == actHang }

// Inject carries the verdict out on one access. It returns a non-nil
// error, wrapping ErrInjected, when the access must fail: at once for an
// injected error, when ctx ends for a hang or mid-delay for a slow access.
func (v Verdict) Inject(ctx context.Context) error {
	switch v.act {
	case actError:
		return ErrInjected
	case actSlow:
		t := time.NewTimer(v.delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("%w: cut off mid-spike: %w", ErrInjected, ctx.Err())
		}
	case actHang:
		<-ctx.Done()
		return fmt.Errorf("%w: hung: %w", ErrInjected, ctx.Err())
	default:
		return nil
	}
}

// Backend wraps an access.Backend, injecting configured faults before
// delegating. It serves one sorted entry per page: a fault schedule counts
// accesses, so each entry passes the gate on its own, in the order it is
// consumed. It is safe for concurrent use.
type Backend struct {
	inner access.Backend
	pages access.Pager // inner's paged read
	sched *Schedule
}

// Wrap builds the fault-injecting wrapper around a backend.
func Wrap(inner access.Backend, cfg Config) *Backend {
	return &Backend{inner: inner, pages: access.Pages(inner), sched: NewSchedule(cfg)}
}

// Unwrap returns the wrapped backend (the access.As convention).
func (b *Backend) Unwrap() access.Backend { return b.inner }

// N returns the object count of the wrapped backend.
func (b *Backend) N() int { return b.inner.N() }

// M returns the predicate count of the wrapped backend.
func (b *Backend) M() int { return b.inner.M() }

// inject decides and applies one access's fault. It returns a non-nil
// error when the access must fail without reaching the inner backend.
func (b *Backend) inject(ctx context.Context, kind access.Kind, pred int) error {
	if err := b.sched.Decide(pred).Inject(ctx); err != nil {
		return fmt.Errorf("%s access on p%d: %w", kind, pred+1, err)
	}
	return nil
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
