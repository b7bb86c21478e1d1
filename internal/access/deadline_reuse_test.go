package access

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/data"
)

// doneBackend asks for ctx.Done on every access, the way network backends
// do, so a session's access deadline links itself under its parent.
type doneBackend struct{ Backend }

func (b doneBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	select {
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	default:
	}
	return b.Backend.Sorted(ctx, pred, rank)
}

// TestDeadlineReuse runs the served cursor's pattern — a page deadline
// drawn from a pool of two, the session bound to it for a page of accesses
// and unbound before it goes back, the session itself Reset every ten pages
// as the pool recycles it — 100 times, and requires that the session built
// its access deadline once, that it followed each page's deadline while
// bound and let go when unbound, and that every page deadline went back
// reusable.
func TestDeadlineReuse(t *testing.T) {
	ds, err := data.Generate(data.Uniform, 1000, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithResilience(&Resilience{Breakers: NewBreakerSet(2, BreakerConfig{}), AccessTimeout: time.Second})}
	sess, err := NewSession(doneBackend{DatasetBackend{DS: ds}}, Uniform(2, 1, 1), opts...)
	if err != nil {
		t.Fatal(err)
	}
	pages := [2]*Deadline{NewDeadline(), NewDeadline()}
	var built *Deadline
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			if err := sess.Reset(opts...); err != nil {
				t.Fatal(err)
			}
		}
		page := pages[i%2]
		if !page.Start(context.Background(), time.Minute) {
			t.Fatalf("page %d: a pooled page deadline would not start", i)
		}
		sess.Bind(page)
		for j := 0; j < 3; j++ {
			if _, _, err := sess.SortedNext(j % 2); err != nil {
				t.Fatalf("page %d: %v", i, err)
			}
		}
		if len(page.kids) != 1 {
			t.Fatalf("page %d: the session's deadline is not following the page's (%d kids)", i, len(page.kids))
		}
		sess.Bind(nil)
		if len(page.kids) != 0 {
			t.Fatalf("page %d: unbinding the session left it linked under the page deadline", i)
		}
		if !page.Stop() {
			t.Fatalf("page %d: the page deadline came back spent", i)
		}
		switch {
		case sess.actx == nil:
			t.Fatalf("page %d: the session dropped its access deadline", i)
		case built == nil:
			built = sess.actx
		case sess.actx != built:
			t.Fatalf("page %d: the session built a second access deadline", i)
		}
	}
}

// TestSpentDeadlineIsNeverReused: a page deadline that fires mid-access
// expires the session's access deadline under it; the session drops that
// one when it is re-bound and builds a fresh one for the next access, while
// a reference retained from the spent page keeps reporting it expired.
func TestSpentDeadlineIsNeverReused(t *testing.T) {
	b := hangBackend{Backend: DatasetBackend{DS: testDataset(t)}, hangPred: 0}
	sess, err := NewSession(b, Uniform(2, 1, 1), WithResilience(&Resilience{AccessTimeout: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	page := NewDeadline()
	page.Start(context.Background(), 5*time.Millisecond)
	sess.Bind(page)
	if _, _, err := sess.SortedNext(0); !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrAccessFailed) {
		t.Fatalf("access under the fired page deadline: %v, want a terminal DeadlineExceeded", err)
	}
	spent := sess.actx
	sess.Bind(nil)
	if page.Stop() {
		t.Fatal("a fired page deadline reported itself reusable")
	}
	if sess.actx != nil {
		t.Fatal("the session kept an access deadline whose parent fired")
	}
	if _, _, err := sess.SortedNext(1); err != nil {
		t.Fatalf("next access: %v", err)
	}
	if sess.actx == nil || sess.actx == spent {
		t.Fatal("the session did not build a fresh access deadline")
	}
	select {
	case <-spent.Done():
	default:
		t.Fatal("a retained reference to the spent deadline no longer reads expired")
	}
	if spent.Err() == nil {
		t.Fatal("a retained reference to the spent deadline reports no error")
	}
}

// TestRebindTakesTheNewTimeout: a deadline re-pointed under a shorter
// timeout than it last ran with expires by the new one, even with the
// watchdog still scheduled for the old.
func TestRebindTakesTheNewTimeout(t *testing.T) {
	d := NewDeadline()
	if !d.Start(context.Background(), time.Hour) || !d.Stop() {
		t.Fatal("an hour-long unit would not start and stop")
	}
	start := time.Now()
	if !d.Start(context.Background(), 10*time.Millisecond) {
		t.Fatal("restart")
	}
	for d.Err() == nil && time.Since(start) < 5*time.Second {
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); !errors.Is(d.Err(), context.DeadlineExceeded) || took > time.Second {
		t.Fatalf("Err = %v after %v, want DeadlineExceeded about 10ms in", d.Err(), took)
	}
}
