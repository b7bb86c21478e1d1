// Fixture for the lockdiscipline analyzer: locks held across channel
// operations or blocking calls are flagged; the unlock-wait-relock shape
// used by internal/parallel/live.go is accepted.
package svc

import (
	"sync"
	"time"

	"repro/internal/obs"
)

type coord struct {
	mu      sync.Mutex
	results chan int
}

func (c *coord) badSend(v int) {
	c.mu.Lock()
	c.results <- v // want "channel send while holding c\.mu"
	c.mu.Unlock()
}

func (c *coord) badRecvUnderDefer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-c.results // want "channel receive while holding c\.mu"
}

func (c *coord) badSleep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond) // want "call to blocking function while holding c\.mu"
}

func (c *coord) badSelect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want "blocking select while holding c\.mu"
	case v := <-c.results:
		_ = v
	}
}

func (c *coord) badRange() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := range c.results { // want "range over channel while holding c\.mu"
		_ = v
	}
}

func (c *coord) badTransitive() {
	c.mu.Lock()
	c.drain() // want "call to drain \(may block\) while holding c\.mu"
	c.mu.Unlock()
}

func (c *coord) drain() { <-c.results }

// goodUnlockWaitRelock is the live.go coordinator shape: the lock is
// released around the wait.
func (c *coord) goodUnlockWaitRelock() int {
	c.mu.Lock()
	c.mu.Unlock()
	v := <-c.results
	c.mu.Lock()
	defer c.mu.Unlock()
	return v
}

// goodSpawn launches the send on another goroutine, which does not hold
// this goroutine's lock.
func (c *coord) goodSpawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() { c.results <- 1 }()
}

// goodNonBlockingSelect has a default clause and cannot stall.
func (c *coord) goodNonBlockingSelect() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case v := <-c.results:
		return v
	default:
		return 0
	}
}

// goodUnlocked performs the same waits with no lock held.
func (c *coord) goodUnlocked() int {
	time.Sleep(time.Millisecond)
	return <-c.results
}

// Observer emissions under a lock couple every producer sharing the lock
// to the observer's latency; events must be collected under the lock and
// emitted after release.
type emitter struct {
	mu sync.Mutex
	o  obs.Observer
}

func (e *emitter) badEmit() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.o.Observe(obs.Event{Kind: obs.RequestShed}) // want "observer emission \(Observe\) while holding e\.mu"
}

func (e *emitter) badEmitInBranch(open bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if open {
		e.o.Observe(obs.Event{Kind: obs.BreakerTransition, Code: obs.Transition(obs.BreakerClosed, obs.BreakerOpen)}) // want "observer emission \(Observe\) while holding e\.mu"
	}
}

// goodEmitAfterUnlock is the required shape: decide under the lock, emit
// after release.
func (e *emitter) goodEmitAfterUnlock() {
	e.mu.Lock()
	shed := true
	e.mu.Unlock()
	if shed {
		e.o.Observe(obs.Event{Kind: obs.RequestShed})
	}
}

// goodConcreteCall invokes a concrete observer implementation, whose
// latency is known and bounded, not the opaque interface.
func (e *emitter) goodConcreteCall(tr *obs.QueryTrace) {
	e.mu.Lock()
	defer e.mu.Unlock()
	tr.Observe(obs.Event{Kind: obs.RequestShed})
}

// twoLocks reports one diagnostic per held mutex.
type pair struct {
	a, b sync.Mutex
	ch   chan int
}

func (p *pair) badBoth() {
	p.a.Lock()
	p.b.Lock()
	p.ch <- 1 // want "channel send while holding p\.a" "channel send while holding p\.b"
	p.b.Unlock()
	p.a.Unlock()
}
