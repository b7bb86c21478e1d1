package access

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// deadlineFired is the terminal value of accessDeadline.armed.
const deadlineFired = math.MaxUint64

// accessDeadline is the context a resilient session hands its backend: one
// value per (session, bound context), re-armed around every access instead
// of deriving a context.WithTimeout child per access. While an access is in
// flight it behaves like that child — Done closes and Err reports
// DeadlineExceeded once the access has run past timeout, parent
// cancellation shows through — and between accesses it is a view of its
// parent. An access admitted while another is still running under it gets
// an accessDeadline of its own, used once (Session.arm).
//
// An access pays one atomic store on entry and one compare-and-swap on
// exit, and never reads the clock: a watchdog timer samples the in-flight
// access every timeout/8 while the session is busy and expires the one it
// has watched for a full timeout. An access is therefore never cut short,
// and a hung one is cut at most one sampling period late.
//
// The price of reuse is a contract the per-access cancel() used to enforce:
// a Backend must not use ctx after the access returns. A deadline that
// fires is never reused — the session drops it, so whoever still holds it
// keeps seeing an expired context.
type accessDeadline struct {
	parent  context.Context
	timeout time.Duration

	// armed is the sequence number of the in-flight access, 0 between
	// accesses, and deadlineFired for good once the watchdog expired one.
	// seq is the owning session's count of accesses armed.
	armed atomic.Uint64
	seq   uint64
	// watching reports a pending watchdog timer; the watchdog stops when
	// it finds the session idle, and the next arm restarts it.
	watching atomic.Bool

	mu        sync.Mutex
	timer     *time.Timer
	seen      uint64    // the access the watchdog last found in flight
	seenSince time.Time // when it first found it
	done      chan struct{}
	closed    bool
	unhook    func() bool // detaches the parent-cancellation hook, once Done set it
}

func newAccessDeadline(parent context.Context, timeout time.Duration) *accessDeadline {
	return &accessDeadline{parent: parent, timeout: timeout, done: make(chan struct{})}
}

// arm marks the start of one access.
//
//topklint:hotpath
func (d *accessDeadline) arm() {
	d.seq++
	d.armed.Store(d.seq)
	if !d.watching.Load() && d.watching.CompareAndSwap(false, true) {
		d.mu.Lock()
		d.scheduleLocked(d.period())
		d.mu.Unlock()
	}
}

// disarm marks the access's return. It reports false when the deadline
// fired first: the context is spent and must not be armed again.
//
//topklint:hotpath
func (d *accessDeadline) disarm() bool {
	return d.armed.CompareAndSwap(d.seq, 0)
}

// period is the watchdog's sampling interval, and so the most by which an
// expiry can trail its deadline.
func (d *accessDeadline) period() time.Duration {
	return max(d.timeout/8, 100*time.Microsecond)
}

func (d *accessDeadline) scheduleLocked(wait time.Duration) {
	if d.timer == nil {
		d.timer = time.AfterFunc(wait, d.watch)
	} else {
		d.timer.Reset(wait)
	}
}

// watch is the watchdog: it notes when it first finds an access in flight,
// expires it if a later sample still finds it there a timeout on, and stops
// sampling when the session is between accesses.
func (d *accessDeadline) watch() {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.armed.Load()
	switch {
	case cur == deadlineFired:
		return
	case cur == 0:
		d.seen = 0
		d.watching.Store(false)
		// An arm that stored its number before reading watching == true is
		// relying on this watchdog.
		if d.armed.Load() == 0 || !d.watching.CompareAndSwap(false, true) {
			return
		}
	case cur != d.seen:
		d.seen, d.seenSince = cur, time.Now()
	default:
		if left := d.timeout - time.Since(d.seenSince); left > 0 {
			d.scheduleLocked(min(left, d.period()))
			return
		}
		// Only the access watched since seenSince can be expired: if it
		// returned just now it has already swapped the word, the swap here
		// fails, and the next access starts clean.
		if d.armed.CompareAndSwap(cur, deadlineFired) {
			d.closeLocked()
			return
		}
	}
	d.scheduleLocked(d.period())
}

func (d *accessDeadline) closeLocked() {
	if !d.closed {
		d.closed = true
		close(d.done)
	}
}

// parentDone propagates the parent's cancellation into Done.
func (d *accessDeadline) parentDone() {
	d.mu.Lock()
	d.closeLocked()
	d.mu.Unlock()
}

// retire releases the watchdog timer and the parent hook when the session
// moves to another context. A nil deadline has nothing to release.
func (d *accessDeadline) retire() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.timer != nil {
		d.timer.Stop()
	}
	if d.unhook != nil {
		d.unhook()
	}
	d.mu.Unlock()
}

// Deadline reports the parent's: the access deadline is enforced through
// Done and Err, by a watchdog that does not know when the access began.
func (d *accessDeadline) Deadline() (time.Time, bool) { return d.parent.Deadline() }

// Done returns a channel closed when the in-flight access's deadline fires
// or the parent is cancelled. In-memory backends only poll Err, so the
// parent is hooked only once a backend asks for the channel.
func (d *accessDeadline) Done() <-chan struct{} {
	d.mu.Lock()
	if d.unhook == nil && !d.closed && d.parent.Done() != nil {
		d.unhook = context.AfterFunc(d.parent, d.parentDone)
	}
	d.mu.Unlock()
	return d.done
}

// Err reports DeadlineExceeded once the access deadline fired, else the
// parent's state.
func (d *accessDeadline) Err() error {
	if d.armed.Load() == deadlineFired {
		return context.DeadlineExceeded
	}
	err := d.parent.Err()
	if err != nil {
		d.parentDone() // Done must not trail a non-nil Err
	}
	return err
}

// Value defers to the parent.
func (d *accessDeadline) Value(key any) any { return d.parent.Value(key) }
