// Package kittest holds the test side of package kit: Clock, a stepped
// kit.Clock a test advances by hand, so that cooldowns, deadlines and TTLs
// pass as statements instead of sleeps, and NoLeaks, the one check that a
// test left no goroutine running.
package kittest

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/kit"
)

// Clock is a kit.Clock that stands still until Advance moves it. Timers
// fire on the goroutine that calls Advance, in time order (arming order
// among equals), with Now reading each timer's own deadline while it runs;
// a callback may arm, re-arm or stop timers, and one it arms within the
// advance fires within it. A callback must not call Advance, nor take a
// lock the advancing goroutine holds.
type Clock struct {
	adv sync.Mutex // one Advance at a time, so timers fire in time order

	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers []*timer // pending, in no order
}

type timer struct {
	c    *Clock
	f    func()
	when time.Time
	seq  uint64 // arming order, to order timers due at one instant
	on   bool
}

// NewClock returns a clock standing at an arbitrary fixed instant.
func NewClock() *Clock {
	return &Clock{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the clock's current time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc arms f to run once the clock has advanced by d. A d of zero
// or less is due at once, and fires on the next Advance — Advance(0) too.
func (c *Clock) AfterFunc(d time.Duration, f func()) kit.Timer {
	t := &timer{c: c, f: f}
	c.mu.Lock()
	c.armLocked(t, d)
	c.mu.Unlock()
	return t
}

// Pending reports how many timers are armed and have not fired.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// Advance moves the clock d forward, firing every timer that falls due on
// the way.
func (c *Clock) Advance(d time.Duration) {
	c.adv.Lock()
	defer c.adv.Unlock()
	c.mu.Lock()
	end := c.now.Add(d)
	for {
		t := c.nextLocked(end)
		if t == nil {
			break
		}
		if t.when.After(c.now) {
			c.now = t.when
		}
		c.disarmLocked(t)
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = end
	c.mu.Unlock()
}

// nextLocked returns the earliest pending timer due by end, nil if none.
func (c *Clock) nextLocked(end time.Time) *timer {
	var next *timer
	for _, t := range c.timers {
		if t.when.After(end) {
			continue
		}
		if next == nil || t.when.Before(next.when) || t.when.Equal(next.when) && t.seq < next.seq {
			next = t
		}
	}
	return next
}

func (c *Clock) armLocked(t *timer, d time.Duration) {
	c.seq++
	t.when, t.seq, t.on = c.now.Add(d), c.seq, true
	c.timers = append(c.timers, t)
}

// disarmLocked takes t off the pending list and reports whether it was on.
func (c *Clock) disarmLocked(t *timer) bool {
	if !t.on {
		return false
	}
	t.on = false
	c.timers = slices.DeleteFunc(c.timers, func(p *timer) bool { return p == t })
	return true
}

func (t *timer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.c.disarmLocked(t)
}

func (t *timer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.c.disarmLocked(t)
	t.c.armLocked(t, d)
	return was
}

// leakWait bounds how long NoLeaks waits for goroutines to end: ones that
// have done their work may still be on their way out.
const leakWait = 5 * time.Second

// watched holds the tests NoLeaks already checks.
var watched sync.Map

// NoLeaks checks, when the test ends, that it left no more goroutines
// running than there were when NoLeaks was first called for it: later
// calls — a helper that starts a second server — add nothing. Call it
// before starting anything, so the check runs after every cleanup the test
// registers (servers, nodes, handlers). It waits for the count to come
// back down, up to a bound, and on failure prints the stacks of the
// goroutines that were not there at the start. Tests that call it must not
// run in parallel.
func NoLeaks(tb testing.TB) {
	tb.Helper()
	if _, dup := watched.LoadOrStore(tb, true); dup {
		return
	}
	before := runtime.NumGoroutine()
	start := stacks()
	tb.Cleanup(func() {
		defer watched.Delete(tb)
		deadline := time.Now().Add(leakWait)
		for wait := 100 * time.Microsecond; runtime.NumGoroutine() > before; wait = min(2*wait, 50*time.Millisecond) {
			if time.Now().After(deadline) {
				tb.Errorf("%d goroutines at the start, %d after %v; these are new:\n%s",
					before, runtime.NumGoroutine(), leakWait, newStacks(start, stacks()))
				return
			}
			time.Sleep(wait)
		}
	})
}

// stacks returns every goroutine's stack, keyed by its header line
// ("goroutine 7 [running]:" less the state).
func stacks() map[string][]byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string][]byte)
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		id, _, _ := bytes.Cut(g, []byte(" ["))
		out[string(id)] = g
	}
	return out
}

// newStacks renders the stacks in now whose goroutines are not in start.
func newStacks(start, now map[string][]byte) string {
	var out bytes.Buffer
	for id, g := range now {
		if _, ok := start[id]; !ok {
			out.Write(g)
			out.WriteString("\n\n")
		}
	}
	return out.String()
}
