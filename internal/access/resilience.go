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

// Circuits is the circuit-breaker state machine, written once: n circuits
// addressed by index under one mutex. BreakerSet keys it by access kind and
// predicate; the cluster coordinator keys it by shard. It is safe for
// concurrent use.
//
// The rules, for every owner:
//   - FailureThreshold consecutive failures open a closed circuit; a success
//     resets the count.
//   - An open circuit refuses every access until its cooldown has passed;
//     then it half-opens, on Poll or on the first Acquire that finds it so.
//   - A half-open circuit grants one probe at a time: its success closes the
//     circuit, its failure re-opens it for another cooldown, and Release
//     (the caller cancelled, no verdict) frees the slot for the next probe.
//   - An outcome recorded while the circuit is open is ignored. It belongs
//     to an access admitted before the circuit opened, and says nothing the
//     failures that opened it did not: it neither closes the circuit nor
//     restarts its cooldown.
//
// State changes are returned to the caller rather than emitted — emission
// under the lock would stall every caller sharing the circuits (and trip
// the lockdiscipline analyzer).
type Circuits struct {
	cfg BreakerConfig
	gen atomic.Uint64 // bumped on every state change; owners re-sync on mismatch
	// unsettled is false while every circuit is closed with a zero failure
	// count: the healthy state, in which Poll, Acquire, Release and a
	// successful Record have nothing to change and return on this one load,
	// without the clock or mu. Written under mu.
	unsettled atomic.Bool

	mu sync.Mutex
	c  []circuit
}

type circuit struct {
	state    BreakerState
	failures int       // consecutive failures while closed
	until    time.Time // open: when the circuit may half-open
	probing  bool      // half-open: a probe access is in flight
}

// NewCircuits builds n closed circuits.
func NewCircuits(n int, cfg BreakerConfig) *Circuits {
	return &Circuits{cfg: cfg.withDefaults(), c: make([]circuit, n)}
}

// Generation returns a counter that increments on every state change.
func (c *Circuits) Generation() uint64 { return c.gen.Load() }

// State returns circuit i's current state.
func (c *Circuits) State(i int) BreakerState {
	if !c.unsettled.Load() {
		return BreakerClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c[i].state
}

// Poll half-opens every open circuit whose cooldown has passed and
// returns their indices.
func (c *Circuits) Poll() []int {
	if !c.unsettled.Load() {
		return nil
	}
	now := c.cfg.Now()
	var moved []int
	c.mu.Lock()
	for i := range c.c {
		if c.c[i].state == BreakerOpen && !now.Before(c.c[i].until) {
			c.halfOpen(&c.c[i])
			moved = append(moved, i)
		}
	}
	c.mu.Unlock()
	return moved
}

// Acquire asks permission to access through circuit i. A closed circuit
// grants it; an open one refuses until its cooldown has passed, when it
// half-opens; a half-open one grants exactly one probe at a time. A grant
// must be paired with Record (an outcome) or Release (none).
func (c *Circuits) Acquire(i int) bool {
	if !c.unsettled.Load() {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cr := &c.c[i]
	switch cr.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if c.cfg.Now().Before(cr.until) {
			return false
		}
		c.halfOpen(cr)
	}
	if cr.probing {
		return false
	}
	cr.probing = true
	return true
}

// Release returns an Acquire grant without an outcome: the access was
// aborted by the caller's own cancellation, which says nothing about what
// is behind the circuit. A half-open probe slot is freed; nothing else
// changes.
func (c *Circuits) Release(i int) {
	if !c.unsettled.Load() {
		return
	}
	c.mu.Lock()
	c.c[i].probing = false
	c.mu.Unlock()
}

// Record reports the outcome of an access Acquire granted and returns the
// transition it caused; from == to when there was none.
func (c *Circuits) Record(i int, ok bool) (from, to BreakerState) {
	if ok && !c.unsettled.Load() {
		return BreakerClosed, BreakerClosed
	}
	c.mu.Lock()
	cr := &c.c[i]
	from = cr.state
	switch cr.state {
	case BreakerClosed:
		if ok {
			cr.failures = 0
		} else if cr.failures++; cr.failures >= c.cfg.FailureThreshold {
			c.open(cr)
		}
	case BreakerHalfOpen:
		cr.probing = false
		if ok {
			cr.state = BreakerClosed
		} else {
			c.open(cr)
		}
	}
	to = cr.state
	if from != to {
		c.gen.Add(1)
	}
	c.unsettled.Store(!ok || !c.settledLocked())
	c.mu.Unlock()
	return from, to
}

// open trips cr for one cooldown (mu held).
func (c *Circuits) open(cr *circuit) {
	cr.state = BreakerOpen
	cr.failures = 0
	cr.until = c.cfg.Now().Add(c.cfg.Cooldown)
}

// halfOpen moves an open cr to half-open with its probe slot free (mu held).
func (c *Circuits) halfOpen(cr *circuit) {
	cr.state = BreakerHalfOpen
	cr.probing = false
	c.gen.Add(1)
}

// settledLocked reports whether every circuit is closed with no failure
// counted (mu held).
func (c *Circuits) settledLocked() bool {
	for _, cr := range c.c {
		if cr.state != BreakerClosed || cr.failures != 0 {
			return false
		}
	}
	return true
}

// BreakerSet holds one circuit breaker per (predicate, access kind): the
// Circuits of 2·m capabilities, kind·m + pred. It is designed to be
// shared: a service keeps one set per backend so breaker state carries
// across queries, while each query's Session consults it through a
// Resilience attachment.
type BreakerSet struct {
	m int
	c *Circuits
}

// NewBreakerSet builds a set of closed breakers for m predicates.
func NewBreakerSet(m int, cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{m: m, c: NewCircuits(2*m, cfg)}
}

// M returns the number of predicates covered.
func (b *BreakerSet) M() int { return b.m }

// Generation returns a counter that increments on every state change.
// Sessions cache it and refresh their capability view only when it moves.
func (b *BreakerSet) Generation() uint64 { return b.c.Generation() }

// State returns the current state of one capability's circuit.
func (b *BreakerSet) State(kind Kind, pred int) BreakerState {
	return b.c.State(int(kind)*b.m + pred)
}

// Poll advances time-based transitions: every open circuit whose cooldown
// has elapsed becomes half-open. It returns the transitions it caused.
func (b *BreakerSet) Poll() []BreakerTransition {
	idx := b.c.Poll()
	if len(idx) == 0 {
		return nil
	}
	trs := make([]BreakerTransition, len(idx))
	for j, i := range idx {
		trs[j] = BreakerTransition{Kind: Kind(i / b.m), Pred: i % b.m, From: BreakerOpen, To: BreakerHalfOpen}
	}
	return trs
}

// Acquire asks permission to perform one access on the capability (see
// Circuits.Acquire).
func (b *BreakerSet) Acquire(kind Kind, pred int) bool {
	return b.c.Acquire(int(kind)*b.m + pred)
}

// Release returns an Acquire grant without an outcome (see
// Circuits.Release).
func (b *BreakerSet) Release(kind Kind, pred int) {
	b.c.Release(int(kind)*b.m + pred)
}

// Record reports the outcome of an access granted by Acquire, returning
// the state transition it caused, if any (see Circuits.Record).
func (b *BreakerSet) Record(kind Kind, pred int, ok bool) []BreakerTransition {
	from, to := b.c.Record(int(kind)*b.m+pred, ok)
	if from == to {
		return nil
	}
	return []BreakerTransition{{Kind: kind, Pred: pred, From: from, To: to}}
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
