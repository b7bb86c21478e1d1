package kittest

import (
	"slices"
	"testing"
	"time"
)

// TestAdvanceFiresInTimeOrder: Advance fires what falls due by its end,
// earliest first and arming order among equals, with Now at each timer's
// instant; timers a callback arms or re-arms inside the window fire in it,
// stopped ones never, and the rest wait for a later Advance.
func TestAdvanceFiresInTimeOrder(t *testing.T) {
	c := NewClock()
	start := c.Now()
	var fired []string
	at := func(name string) func() {
		return func() { fired = append(fired, name+"@"+c.Now().Sub(start).String()) }
	}
	c.AfterFunc(3*time.Second, at("c"))
	c.AfterFunc(time.Second, at("a"))
	c.AfterFunc(3*time.Second, at("d"))
	stopped := c.AfterFunc(2*time.Second, at("never"))
	var tick func()
	ticks := 0
	ticker := c.AfterFunc(2*time.Second, func() { tick() })
	tick = func() {
		at("tick")()
		if ticks++; ticks < 3 {
			ticker.Reset(500 * time.Millisecond)
		}
	}
	c.AfterFunc(10*time.Second, at("later"))
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop reports a pending timer once, then not")
	}

	c.Advance(5 * time.Second)
	want := []string{"a@1s", "tick@2s", "tick@2.5s", "c@3s", "d@3s", "tick@3s"}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if got := c.Now().Sub(start); got != 5*time.Second {
		t.Fatalf("Now is %v after Advance(5s)", got)
	}
	if c.Pending() != 1 {
		t.Fatalf("%d timers pending, want the one due at 10s", c.Pending())
	}
	c.Advance(5 * time.Second)
	if last := fired[len(fired)-1]; last != "later@10s" {
		t.Fatalf("last fired %q, want later@10s", last)
	}
}
