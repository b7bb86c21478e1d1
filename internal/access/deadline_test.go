package access

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/kit/kittest"
	"repro/internal/obs"
)

// servedOptions is the configuration the HTTP service runs every session
// under: shared breakers, a per-access deadline, a cancellable context.
func servedOptions(ctx context.Context, set *BreakerSet, timeout time.Duration) []Option {
	return []Option{WithContext(ctx), WithResilience(&Resilience{Breakers: set, AccessTimeout: timeout})}
}

// TestResilientAccessesDoNotAllocate: with breakers closed and the deadline
// context re-armed rather than re-derived, a served access allocates
// nothing — the ladder's access.resilient_allocs_per_access.
func TestResilientAccessesDoNotAllocate(t *testing.T) {
	const runs = 500
	ds, err := data.Generate(data.Uniform, 4*runs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess, err := NewSession(DatasetBackend{DS: ds}, Uniform(2, 1, 1), servedOptions(ctx, NewBreakerSet(2, BreakerConfig{}), 5*time.Second)...)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, 0, 2*runs)
	next := func() {
		obj, _, err := sess.SortedNext(0)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, obj)
	}
	next() // the first access builds the deadline context
	if allocs := testing.AllocsPerRun(runs, next); allocs != 0 {
		t.Errorf("SortedNext allocates %v objects per access, want 0", allocs)
	}
	probe := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := sess.Random(1, seen[probe]); err != nil {
			t.Fatal(err)
		}
		probe++
	}); allocs != 0 {
		t.Errorf("Random allocates %v objects per access, want 0", allocs)
	}
}

// hangBackend blocks accesses on hangPred until their context ends. Given
// a clock, it steps it a millisecond at a time until then, for up to an
// hour: the time a hung source takes, passed as statements.
type hangBackend struct {
	Backend  // a DatasetBackend, paged entry by entry through Sorted
	hangPred int
	clk      *kittest.Clock
}

func (b hangBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	if pred != b.hangPred {
		return b.Backend.Sorted(ctx, pred, rank)
	}
	if b.clk != nil {
		for start := b.clk.Now(); ctx.Err() == nil; b.clk.Advance(time.Millisecond) {
			if b.clk.Now().Sub(start) > time.Hour {
				return 0, 0, errors.New("hang: an hour passed and the context is still live")
			}
		}
	}
	<-ctx.Done()
	return 0, 0, ctx.Err()
}

// TestAccessTimeoutFeedsBreakerAndSparesNextAccess walks the whole chain on
// one reused deadline context: a hung source times out as ErrAccessFailed
// with DeadlineExceeded inside, the failures open its breaker, and neither
// the next access on the same session nor a pooled-then-Reset session
// inherits the expiry — even after idling past the timeout. The deadline
// runs on the breakers' clock, which the hung source steps.
func TestAccessTimeoutFeedsBreakerAndSparesNextAccess(t *testing.T) {
	const timeout = 10 * time.Millisecond
	clk := kittest.NewClock()
	set := NewBreakerSet(2, BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour, Clock: clk})
	b := hangBackend{Backend: DatasetBackend{DS: testDataset(t)}, hangPred: 0, clk: clk}
	opts := servedOptions(context.Background(), set, timeout)
	sess, err := NewSession(b, Uniform(2, 1, 1), opts...)
	if err != nil {
		t.Fatal(err)
	}
	healthy := func(when string) {
		t.Helper()
		if _, _, err := sess.SortedNext(1); err != nil {
			t.Fatalf("healthy predicate %s: %v", when, err)
		}
	}
	healthy("before any hang")
	for i := 0; i < 2; i++ {
		start := clk.Now()
		_, _, err := sess.SortedNext(0)
		if !errors.Is(err, ErrAccessFailed) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("hang %d: err = %v, want ErrAccessFailed wrapping DeadlineExceeded", i+1, err)
		}
		// Never early, and at most one sampling period (and one step) late.
		if took := clk.Now().Sub(start); took < timeout || took > timeout+timeout/8+time.Millisecond {
			t.Fatalf("hang %d resolved after %v, want %v to %v", i+1, took, timeout, timeout+timeout/8+time.Millisecond)
		}
		healthy("right after a timeout")
	}
	if set.State(SortedAccess, 0) != BreakerOpen {
		t.Fatal("two timeouts did not open the source's breaker")
	}
	if _, _, err := sess.SortedNext(0); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("access on the opened circuit: %v, want ErrCircuitOpen", err)
	}
	if got := sess.Ledger(); got.SortedCounts[0] != 0 || got.SortedCounts[1] != 3 {
		t.Fatalf("ledger %+v: timed-out accesses must not be billed", got)
	}
	clk.Advance(3 * timeout)
	healthy("after idling past the timeout")

	// The session goes back to its pool and out again.
	if err := sess.Reset(opts...); err != nil {
		t.Fatal(err)
	}
	healthy("after Reset")
	clk.Advance(3 * timeout)
	healthy("after Reset and an idle timeout")
	if sess.Err() != nil {
		t.Fatalf("session context died: %v", sess.Err())
	}
}

// edgeBackend returns from p1 accesses right around the access deadline and
// from p2 accesses at once; either way it reports what its context says.
type edgeBackend struct {
	Backend // a DatasetBackend, paged entry by entry through Sorted
	timeout time.Duration
	calls   int
}

func (b *edgeBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	if pred == 0 {
		b.calls++
		time.Sleep(b.timeout + time.Duration(b.calls%7-3)*b.timeout/20)
	}
	return b.Backend.Sorted(ctx, pred, rank)
}

// TestFiredDeadlineNeverLeaksIntoNextAccess races the watchdog against
// accesses that return as their deadline fires: whichever side wins, the
// expiry belongs to that access alone and the next one starts clean. The
// race is the point, so this test stays on the wall clock: its backend
// sleeps for the watchdog's goroutine to run beside it.
func TestFiredDeadlineNeverLeaksIntoNextAccess(t *testing.T) {
	const timeout = 2 * time.Millisecond
	ds, err := data.Generate(data.Uniform, 400, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := &edgeBackend{Backend: DatasetBackend{DS: ds}, timeout: timeout}
	// No breakers: every p1 access must be attempted.
	sess, err := NewSession(b, Uniform(2, 1, 1), WithResilience(&Resilience{AccessTimeout: timeout}))
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 150; i++ {
		if _, _, err := sess.SortedNext(0); err != nil {
			if !errors.Is(err, ErrAccessFailed) {
				t.Fatalf("edge access %d: %v", i, err)
			}
			fired++
		}
		if _, _, err := sess.SortedNext(1); err != nil {
			t.Fatalf("access after edge access %d inherited its deadline: %v", i, err)
		}
	}
	if got := sess.Ledger(); got.SortedCounts[0] != 150-fired || got.SortedCounts[1] != 150 {
		t.Fatalf("ledger %+v, want %d + 150 billed", got, 150-fired)
	}
}

// denials records refused accesses by reason.
type denials struct {
	reasons []obs.DenyReason
}

func (d *denials) Observe(ev obs.Event) {
	switch ev.Kind {
	case obs.AccessDenied:
		d.reasons = append(d.reasons, obs.DenyReason(ev.Code))
	}
}

// TestParentCancelUnderAccessTimeoutStaysTerminal: cancelling the session's
// own context while an access hangs under the (much longer) access deadline
// wakes the backend through the deadline context, is not absorbed as a
// source failure, and is reported as DenyCancelled without a breaker verdict.
func TestParentCancelUnderAccessTimeoutStaysTerminal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk := kittest.NewClock()
	set := NewBreakerSet(2, BreakerConfig{FailureThreshold: 1, Clock: clk})
	var seen denials
	sess, err := NewSession(hangBackend{Backend: DatasetBackend{DS: testDataset(t)}, hangPred: 0, clk: clk}, Uniform(2, 1, 1),
		append(servedOptions(ctx, set, time.Minute), WithObserver(&seen))...)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled atomic.Bool
	clk.AfterFunc(5*time.Millisecond, func() { cancelled.Store(true); cancel() })
	_, _, aerr := sess.SortedNext(0)
	if !cancelled.Load() {
		t.Fatal("hung access returned before the context was cancelled")
	}
	if !errors.Is(aerr, context.Canceled) || errors.Is(aerr, ErrAccessFailed) {
		t.Fatalf("cancelled access: %v, want terminal context.Canceled", aerr)
	}
	if len(seen.reasons) != 1 || seen.reasons[0] != obs.DenyCancelled {
		t.Fatalf("denials %v, want one DenyCancelled", seen.reasons)
	}
	if set.State(SortedAccess, 0) != BreakerClosed {
		t.Fatal("cancellation counted against the source's breaker")
	}
	// Terminal: the next access fails the same way without reaching a hang.
	if _, _, err := sess.SortedNext(1); !errors.Is(err, context.Canceled) {
		t.Fatalf("access after cancellation: %v, want context.Canceled", err)
	}
}

// TestAccessDeadlineContext pins the context.Context face of the reusable
// deadline: the parent's values and deadline show through, and a deadline
// that fired before anyone asked for Done still reports a closed one.
func TestAccessDeadlineContext(t *testing.T) {
	type key struct{}
	parentDL := time.Now().Add(time.Hour)
	parent, cancel := context.WithDeadline(context.WithValue(context.Background(), key{}, "v"), parentDL)
	defer cancel()
	clk := kittest.NewClock()
	d := newAccessDeadline(parent, time.Millisecond, clk)
	defer d.retire()
	if d.Value(key{}) != "v" {
		t.Error("parent value hidden")
	}
	if dl, ok := d.Deadline(); !ok || !dl.Equal(parentDL) {
		t.Errorf("Deadline = %v %v, want the parent's", dl, ok)
	}
	d.arm()
	clk.Advance(time.Millisecond)
	if d.Err() != nil {
		t.Fatalf("Err = %v before the watchdog could have watched a full timeout", d.Err())
	}
	clk.Advance(time.Millisecond)
	if !errors.Is(d.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", d.Err())
	}
	select {
	case <-d.Done():
	default:
		t.Fatal("Done still open after the deadline fired")
	}
	if d.disarm() {
		t.Fatal("disarm of a fired deadline must report it spent")
	}
}
