package kit

import "time"

// Clock is the one source of time for everything that decides behaviour
// from it: breaker cooldowns, access and query deadlines, the cursor
// reaper. Stopwatches — latency histograms, phase timings, calibration —
// measure the machine and read time.Now directly. Wall is the real clock;
// kittest.Clock is a stepped one tests advance by hand. Holders compare
// clocks with ==, so an implementation must be comparable: Wall, or a
// pointer.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc calls f in its own goroutine once d has passed (Wall), or
	// when a stepped clock is advanced past it, and returns a Timer that
	// can stop or re-arm the call.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call; *time.Timer satisfies it.
type Timer interface {
	// Stop prevents the call, reporting false if it already fired or was
	// stopped.
	Stop() bool
	// Reset re-arms the call for d from now, reporting whether it was
	// still pending.
	Reset(d time.Duration) bool
}

// Wall is the real clock: time.Now and time.AfterFunc.
type Wall struct{}

// Now returns time.Now().
func (Wall) Now() time.Time { return time.Now() }

// AfterFunc returns time.AfterFunc(d, f).
func (Wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
