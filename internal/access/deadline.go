package access

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// deadlineFired is the terminal value of Deadline.armed.
const deadlineFired = math.MaxUint64

// Deadline is the stack's one deadline mechanism: a context that bounds one
// unit of work at a time — an access, a served query, a cursor page — and is
// re-armed around each instead of deriving a context.WithTimeout child per
// unit. While a unit is in flight it behaves like that child — Done closes
// and Err reports DeadlineExceeded once the unit has run past its timeout,
// the parent's cancellation shows through — and between units it is a view
// of its parent.
//
// A unit pays one atomic store on entry and one compare-and-swap on exit,
// and never reads the clock: a watchdog timer samples the in-flight unit
// every timeout/8 while the deadline is busy and expires the one it has
// watched for a full timeout. A unit is therefore never cut short, and a
// hung one is cut at most one sampling period late.
//
// Who owns one, and when it moves:
//
//   - A resilient Session owns one for its life: built by the first access
//     that needs it, re-armed by every access after, re-pointed at the
//     session's context and current AccessTimeout by Reset and Bind. An
//     access admitted while another runs under it gets a Deadline of its
//     own, used once (Session.arm).
//   - The HTTP service bounds each /query and each cursor page with one
//     drawn from its pool: Start re-points and arms it, Stop disarms it,
//     detaches it from the request and reports whether it may go back.
//
// A Deadline under a Deadline — a session's under a served query's —
// follows its parent's expiry without a goroutine or an allocation.
//
// The price of reuse is a contract a per-unit cancel() used to enforce by
// force: a Backend must not use ctx after the access returns. A reference
// retained past its unit sees whatever the Deadline bounds now — the
// session's next access, another request's query. A Deadline that fired, or
// whose parent was cancelled, is spent: it is never re-pointed or re-armed,
// so whoever still holds it keeps seeing it expired.
type Deadline struct {
	// parent and timeout change only between units (bind), while nothing
	// may read them: the contract above.
	parent  context.Context
	timeout time.Duration

	// armed is the sequence number of the in-flight unit, 0 between units,
	// and deadlineFired for good once the watchdog expired one. seq is the
	// owner's count of units armed.
	armed atomic.Uint64
	seq   uint64
	// watching reports a pending watchdog timer; the watchdog stops when
	// it finds the deadline idle, and the next arm restarts it.
	watching atomic.Bool

	mu        sync.Mutex
	timer     *time.Timer
	seen      uint64    // the unit the watchdog last found in flight
	seenSince time.Time // when it first found it
	done      chan struct{}
	closed    bool
	// hooked reports that Done asked for the parent's cancellation; up (a
	// parent Deadline, which then lists this one among its kids) or unhook
	// (any other parent's context.AfterFunc) forwards it.
	hooked       bool
	up           *Deadline
	unhook       func() bool
	onParentDone func() // parentDone, bound once
	kids         []*Deadline
}

func newAccessDeadline(parent context.Context, timeout time.Duration) *Deadline {
	d := &Deadline{parent: parent, timeout: timeout, done: make(chan struct{})}
	d.onParentDone = d.parentDone
	return d
}

// NewDeadline returns an idle Deadline for Start to arm.
func NewDeadline() *Deadline { return newAccessDeadline(context.Background(), 0) }

// Start re-points d at parent and begins one unit of work bounded by
// timeout. It reports false, starting nothing, when d cannot be reused (see
// bind).
func (d *Deadline) Start(parent context.Context, timeout time.Duration) bool {
	if !d.bind(parent, timeout) {
		return false
	}
	d.arm()
	return true
}

// Stop ends the unit Start began and detaches d from its parent, so an idle
// Deadline pins nothing of the request it bounded. It reports whether d may
// be started again: false once it fired or its parent was cancelled, and
// the owner must then drop it.
func (d *Deadline) Stop() bool {
	// The timeout stays: a pooled deadline is started again with the same
	// one, and its watchdog's schedule with it.
	if d.disarm() && d.bind(context.Background(), d.timeout) {
		return true
	}
	d.retire()
	return false
}

// arm marks the start of one unit.
//
//topklint:hotpath
func (d *Deadline) arm() {
	d.seq++
	d.armed.Store(d.seq)
	if !d.watching.Load() && d.watching.CompareAndSwap(false, true) {
		d.mu.Lock()
		d.scheduleLocked(d.period())
		d.mu.Unlock()
	}
}

// disarm marks the unit's return. It reports false when the deadline fired
// first: the context is spent and must not be armed again.
//
//topklint:hotpath
func (d *Deadline) disarm() bool {
	return d.armed.CompareAndSwap(d.seq, 0)
}

// bind re-points d at parent for the units that follow, under timeout. It
// reports false — and the owner must retire d — once d is spent (fired, or
// closed by its parent's cancellation) or while a unit is still out under
// it (an access its executor abandoned).
func (d *Deadline) bind(parent context.Context, timeout time.Duration) bool {
	if d.armed.Load() != 0 {
		return false
	}
	d.unhookParent()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.parent = parent
	// Deadlines that followed the last unit are its owners' to unbind; one
	// that was not must not be closed by the next unit's expiry.
	clear(d.kids)
	d.kids = d.kids[:0]
	if timeout != d.timeout {
		d.timeout = timeout
		if d.watching.Load() {
			// A watchdog still pending was scheduled for the old timeout.
			d.scheduleLocked(d.period())
		}
	}
	return true
}

// period is the watchdog's sampling interval, and so the most by which an
// expiry can trail its deadline.
func (d *Deadline) period() time.Duration {
	return max(d.timeout/8, 100*time.Microsecond)
}

func (d *Deadline) scheduleLocked(wait time.Duration) {
	if d.timer == nil {
		d.timer = time.AfterFunc(wait, d.watch)
	} else {
		d.timer.Reset(wait)
	}
}

// watch is the watchdog: it notes when it first finds a unit in flight,
// expires it if a later sample still finds it there a timeout on, and stops
// sampling when the deadline is between units.
func (d *Deadline) watch() {
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
		// Only the unit watched since seenSince can be expired: if it
		// returned just now it has already swapped the word, the swap here
		// fails, and the next unit starts clean.
		if d.armed.CompareAndSwap(cur, deadlineFired) {
			d.closeLocked()
			return
		}
	}
	d.scheduleLocked(d.period())
}

// closeLocked closes Done, and with it every Deadline following this one.
// Locks are only ever taken parent before kid.
func (d *Deadline) closeLocked() {
	if d.closed {
		return
	}
	d.closed = true
	close(d.done)
	for _, kid := range d.kids {
		kid.parentDone()
	}
	clear(d.kids)
	d.kids = d.kids[:0]
}

// parentDone propagates the parent's cancellation into Done.
func (d *Deadline) parentDone() {
	d.mu.Lock()
	d.closeLocked()
	d.mu.Unlock()
}

// hookParent forwards the parent's cancellation into Done: a parent
// Deadline lists d among its kids, any other parent through
// context.AfterFunc.
func (d *Deadline) hookParent(parent context.Context) {
	if up, ok := parent.(*Deadline); ok {
		up.follow(d)
		return
	}
	if parent.Done() == nil {
		return
	}
	stop := context.AfterFunc(parent, d.onParentDone)
	d.mu.Lock()
	d.unhook = stop
	d.mu.Unlock()
}

// follow makes kid close when d does — at once if d already has.
func (d *Deadline) follow(kid *Deadline) {
	d.Done() // d follows its own parent first
	kid.mu.Lock()
	kid.up = d
	kid.mu.Unlock()
	d.mu.Lock()
	if !d.closed {
		d.kids = append(d.kids, kid)
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	kid.parentDone()
}

// unhookParent undoes hookParent.
func (d *Deadline) unhookParent() {
	d.mu.Lock()
	up, unhook := d.up, d.unhook
	d.up, d.unhook, d.hooked = nil, nil, false
	d.mu.Unlock()
	if up != nil {
		up.mu.Lock()
		if i := slices.Index(up.kids, d); i >= 0 {
			up.kids = slices.Delete(up.kids, i, i+1)
		}
		up.mu.Unlock()
	}
	if unhook != nil {
		unhook()
	}
}

// retire releases the watchdog timer and the parent hook of a deadline its
// owner drops. A nil deadline has nothing to release.
func (d *Deadline) retire() {
	if d == nil {
		return
	}
	d.unhookParent()
	d.mu.Lock()
	if d.timer != nil {
		d.timer.Stop()
	}
	d.mu.Unlock()
}

// Deadline reports the parent's: the unit's deadline is enforced through
// Done and Err, by a watchdog that does not know when the unit began.
func (d *Deadline) Deadline() (time.Time, bool) { return d.parent.Deadline() }

// Done returns a channel closed when the in-flight unit's deadline fires or
// the parent is cancelled. In-memory backends only poll Err, so the parent
// is hooked only once a backend asks for the channel.
func (d *Deadline) Done() <-chan struct{} {
	d.mu.Lock()
	hook := !d.hooked && !d.closed
	d.hooked = true
	parent := d.parent
	d.mu.Unlock()
	if hook {
		d.hookParent(parent)
	}
	return d.done
}

// Err reports DeadlineExceeded once the unit's deadline fired, else the
// parent's state.
func (d *Deadline) Err() error {
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
func (d *Deadline) Value(key any) any { return d.parent.Value(key) }
