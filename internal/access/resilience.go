// Resilience: circuit breakers and per-access deadlines for sessions over
// unreliable sources.
//
// The paper's framework treats source capabilities as part of the access
// scenario (the Figure 2 matrix) and re-plans when the scenario shifts
// mid-query. A real-world source outage is therefore not an exceptional
// condition but a scenario change: when a capability's circuit breaker
// opens after consecutive failures, the Session flips that capability off
// in CurrentScenario(), and the (adaptive) optimizer re-plans against the
// degraded scenario — the paper's own adaptivity mechanism, reused for
// fault tolerance. When the cooldown elapses the breaker half-opens, one
// probe access is let through, and a success restores the capability.
package access

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is the classic three-state circuit-breaker machine.
type BreakerState uint8

const (
	// BreakerClosed: the capability is healthy; accesses flow through.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures tripped the circuit; accesses are
	// refused locally and the capability reads as unsupported.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe access is
	// let through to decide between closing and re-opening.
	BreakerHalfOpen
)

// String returns "closed", "open", or "half_open".
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes the per-capability circuit breakers. The zero value
// is usable: 3 consecutive failures open a circuit, and it half-opens
// after a 1-second cooldown.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures open the circuit
	// (default 3).
	FailureThreshold int
	// Cooldown is how long an open circuit waits before half-opening for a
	// probe (default 1s).
	Cooldown time.Duration
	// Now is the clock (default time.Now); tests inject a fake to drive
	// cooldowns deterministically.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// BreakerTransition records one state change of one capability's circuit.
type BreakerTransition struct {
	Kind     Kind
	Pred     int
	From, To BreakerState
}

type breaker struct {
	state    BreakerState
	failures int       // consecutive failures while closed
	until    time.Time // open: when the circuit may half-open
	probing  bool      // half-open: a probe access is in flight
}

// BreakerSet holds one circuit breaker per (predicate, access kind). It is
// safe for concurrent use and designed to be shared: a service keeps one
// set per backend so breaker state carries across queries, while each
// query's Session consults it through a Resilience attachment.
//
// State transitions are returned to the caller rather than emitted into an
// observer directly — emission under the set's lock would stall every
// session sharing it (and trip the lockdiscipline analyzer).
type BreakerSet struct {
	cfg BreakerConfig
	gen atomic.Uint64 // bumped on every state change; sessions re-sync on mismatch
	// unsettled is false while every circuit is closed with a zero failure
	// count: the healthy state, in which Poll, Acquire and a successful
	// Record have nothing to change and return on this one load, without
	// the clock or mu. Written under mu.
	unsettled atomic.Bool

	mu sync.Mutex
	br [2][]breaker // indexed by Kind, then predicate
}

// NewBreakerSet builds a set of closed breakers for m predicates.
func NewBreakerSet(m int, cfg BreakerConfig) *BreakerSet {
	b := &BreakerSet{cfg: cfg.withDefaults()}
	b.br[SortedAccess] = make([]breaker, m)
	b.br[RandomAccess] = make([]breaker, m)
	return b
}

// M returns the number of predicates covered.
func (b *BreakerSet) M() int { return len(b.br[SortedAccess]) }

// Generation returns a counter that increments on every state change.
// Sessions cache it and refresh their capability view only when it moves.
func (b *BreakerSet) Generation() uint64 { return b.gen.Load() }

// State returns the current state of one capability's circuit.
func (b *BreakerSet) State(kind Kind, pred int) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.br[kind][pred].state
}

// Poll advances time-based transitions: every open circuit whose cooldown
// has elapsed becomes half-open. It returns the transitions it caused.
func (b *BreakerSet) Poll() []BreakerTransition {
	if !b.unsettled.Load() {
		return nil
	}
	now := b.cfg.Now()
	b.mu.Lock()
	var trs []BreakerTransition
	for kind := range b.br {
		for pred := range b.br[kind] {
			br := &b.br[kind][pred]
			if br.state == BreakerOpen && !now.Before(br.until) {
				br.state = BreakerHalfOpen
				br.probing = false
				trs = append(trs, BreakerTransition{Kind: Kind(kind), Pred: pred, From: BreakerOpen, To: BreakerHalfOpen})
			}
		}
	}
	if len(trs) > 0 {
		b.gen.Add(1)
	}
	b.mu.Unlock()
	return trs
}

// Acquire asks permission to perform one access on the capability. Closed
// circuits always grant it; open circuits refuse; a half-open circuit
// grants exactly one probe at a time. Grants must be paired with a Record
// call reporting the outcome.
func (b *BreakerSet) Acquire(kind Kind, pred int) bool {
	if !b.unsettled.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	br := &b.br[kind][pred]
	switch br.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if br.probing {
			return false
		}
		br.probing = true
		return true
	default:
		return false
	}
}

// Release returns an Acquire grant without an outcome (the access was
// aborted by the caller's own cancellation, which says nothing about the
// source). A half-open probe slot is freed; nothing else changes.
func (b *BreakerSet) Release(kind Kind, pred int) {
	b.mu.Lock()
	b.br[kind][pred].probing = false
	b.mu.Unlock()
}

// Record reports the outcome of an access granted by Acquire, returning
// any state transition it caused: consecutive failures open a closed
// circuit, a failed probe re-opens a half-open one, a successful probe
// closes it.
func (b *BreakerSet) Record(kind Kind, pred int, ok bool) []BreakerTransition {
	if ok && !b.unsettled.Load() {
		return nil
	}
	now := b.cfg.Now()
	b.mu.Lock()
	br := &b.br[kind][pred]
	var trs []BreakerTransition
	switch br.state {
	case BreakerClosed:
		if ok {
			br.failures = 0
		} else if br.failures++; br.failures >= b.cfg.FailureThreshold {
			br.state = BreakerOpen
			br.failures = 0
			br.until = now.Add(b.cfg.Cooldown)
			trs = append(trs, BreakerTransition{Kind: kind, Pred: pred, From: BreakerClosed, To: BreakerOpen})
		}
	case BreakerHalfOpen:
		br.probing = false
		if ok {
			br.state = BreakerClosed
			br.failures = 0
			trs = append(trs, BreakerTransition{Kind: kind, Pred: pred, From: BreakerHalfOpen, To: BreakerClosed})
		} else {
			br.state = BreakerOpen
			br.until = now.Add(b.cfg.Cooldown)
			trs = append(trs, BreakerTransition{Kind: kind, Pred: pred, From: BreakerHalfOpen, To: BreakerOpen})
		}
	}
	if len(trs) > 0 {
		b.gen.Add(1)
	}
	b.unsettled.Store(!ok || !b.settledLocked())
	b.mu.Unlock()
	return trs
}

// settledLocked reports whether every circuit is closed with no failure
// counted (mu held).
func (b *BreakerSet) settledLocked() bool {
	for kind := range b.br {
		for _, br := range b.br[kind] {
			if br.state != BreakerClosed || br.failures != 0 {
				return false
			}
		}
	}
	return true
}

// Resilience attaches fault tolerance to a Session (WithResilience): a
// shared circuit-breaker set and a per-access deadline. The zero value of
// each field is inert — a nil Breakers skips breaker bookkeeping, a zero
// AccessTimeout leaves accesses unbounded.
type Resilience struct {
	// Breakers is the circuit-breaker set, usually shared across sessions
	// so breaker state carries across queries. It is keyed by the
	// session's backend predicates, whatever columns a run selects
	// (Option.Cols), so it must cover all of them.
	Breakers *BreakerSet
	// AccessTimeout bounds each backend access: a source that hangs past
	// it fails the access with a retryable error instead of stalling the
	// query (0 = unbounded).
	AccessTimeout time.Duration
}
