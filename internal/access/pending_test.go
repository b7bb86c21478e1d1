package access

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestAdmitReservesAgainstBudget: accesses admitted and not yet settled
// count against the budget, so however many are out at once the bill never
// exceeds it — and a refused admit changes nothing.
func TestAdmitReservesAgainstBudget(t *testing.T) {
	sess, err := NewSession(DatasetBackend{DS: testDataset(t)}, Uniform(2, 1, 1), WithBudget(CostOf(3)))
	if err != nil {
		t.Fatal(err)
	}
	var out []Pending
	for i := 0; i < 3; i++ {
		var p Pending
		if err := sess.Admit(&p, SortedAccess, i%2, 0); err != nil {
			t.Fatalf("admit %d within budget: %v", i, err)
		}
		out = append(out, p)
	}
	if out[0].Rank != 0 || out[2].Rank != 1 || out[1].Rank != 0 {
		t.Errorf("ranks handed out: %d %d %d, want 0 0 1", out[0].Rank, out[1].Rank, out[2].Rank)
	}
	var over Pending
	if err := sess.Admit(&over, SortedAccess, 0, 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("fourth admit on a budget of 3: err = %v, want ErrBudgetExhausted", err)
	}
	if sess.TotalCost() != 0 || sess.SortedDepth(0) != 2 {
		t.Errorf("before any settle: billed %v, depth %d; want 0 billed, 2 ranks handed out", sess.TotalCost(), sess.SortedDepth(0))
	}
	for i := range out {
		sess.Perform(&out[i])
		if _, _, err := sess.Settle(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := sess.Ledger(); got.TotalCost != CostOf(3) || got.SortedCounts[0] != 2 || got.SortedCounts[1] != 1 {
		t.Errorf("ledger after settling = %+v, want 2+1 sorted, 3 units", got)
	}
	if err := sess.Admit(&over, SortedAccess, 0, 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("admit past a spent budget: err = %v", err)
	}
}

// TestAdmitMarksProbe: a probe admitted and still out cannot be admitted
// again, and a failed one is handed back unbilled, reported denied once.
func TestAdmitMarksProbe(t *testing.T) {
	var den denials
	b := DatasetBackend{DS: testDataset(t)}
	sess, err := NewSession(b, Uniform(2, 1, 1), WithoutNoWildGuesses(), WithObserver(&den))
	if err != nil {
		t.Fatal(err)
	}
	var p, q Pending
	if err := sess.Admit(&p, RandomAccess, 1, 7); err != nil {
		t.Fatal(err)
	}
	if err := sess.Admit(&q, RandomAccess, 1, 7); !errors.Is(err, ErrRepeatedProbe) {
		t.Fatalf("second admit of a probe still out: err = %v, want ErrRepeatedProbe", err)
	}
	den.reasons = nil
	p.Err = fmt.Errorf("source went away") // as Perform would have left it
	if _, _, err := sess.Settle(&p); err == nil {
		t.Fatal("settling a failed access returned no error")
	}
	if len(den.reasons) != 1 || den.reasons[0] != obs.DenyBackend {
		t.Errorf("failed access reported %v, want one backend denial", den.reasons)
	}
	if sess.TotalCost() != 0 || sess.Probed(1, 7) || sess.Ledger().TotalAccesses() != 0 {
		t.Errorf("failed probe left a mark: billed %v, probed %v", sess.TotalCost(), sess.Probed(1, 7))
	}
	if score, err := sess.Random(1, 7); err != nil || score != b.DS.Score(7, 1) {
		t.Errorf("the released probe is not re-derivable: %g, %v", score, err)
	}
	// A failed sorted access hands its rank back the same way.
	if err := sess.Admit(&q, SortedAccess, 0, 0); err != nil {
		t.Fatal(err)
	}
	q.Err = fmt.Errorf("source went away")
	sess.Settle(&q)
	if sess.SortedDepth(0) != 0 {
		t.Errorf("failed sorted access moved the cursor to %d", sess.SortedDepth(0))
	}
}

// TestOverlappingAccessesUnderAccessTimeout: with several accesses out at
// once, each runs under a deadline of its own — the session's re-armable one
// when nothing else is running under it, a fresh one otherwise. The hung one
// times out as ErrAccessFailed against its breaker; its siblings, performed
// meanwhile on other goroutines, settle and bill normally.
func TestOverlappingAccessesUnderAccessTimeout(t *testing.T) {
	const timeout = 10 * time.Millisecond
	b := hangBackend{Backend: DatasetBackend{DS: testDataset(t)}, hangPred: 0}
	for _, hungFirst := range []bool{true, false} { // the hung access holds the shared deadline, or a fresh one
		set := NewBreakerSet(2, BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour})
		sess, err := NewSession(b, Uniform(2, 1, 1), servedOptions(context.Background(), set, timeout)...)
		if err != nil {
			t.Fatal(err)
		}
		preds := []int{1, 1, 1}
		if hungFirst {
			preds = append([]int{0}, preds...)
		} else {
			preds = append(preds, 0)
		}
		out := make([]Pending, len(preds))
		var wg sync.WaitGroup
		for i, pred := range preds {
			if err := sess.Admit(&out[i], SortedAccess, pred, 0); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(p *Pending) {
				defer wg.Done()
				sess.Perform(p)
			}(&out[i])
		}
		wg.Wait()
		for i := range out {
			_, _, err := sess.Settle(&out[i])
			if out[i].Pred == 1 {
				if err != nil {
					t.Errorf("hungFirst=%v: sibling %d failed: %v", hungFirst, i, err)
				}
				continue
			}
			if !errors.Is(err, ErrAccessFailed) || !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("hungFirst=%v: hung access: err = %v, want ErrAccessFailed wrapping DeadlineExceeded", hungFirst, err)
			}
		}
		if got := sess.Ledger(); got.SortedCounts[0] != 0 || got.SortedCounts[1] != 3 || got.TotalCost != CostOf(3) {
			t.Errorf("hungFirst=%v: ledger %+v, want the three siblings billed and nothing else", hungFirst, got)
		}
		if st := set.State(SortedAccess, 0); st != BreakerOpen {
			t.Errorf("hungFirst=%v: hung source's breaker is %v, want open", hungFirst, st)
		}
		if st := set.State(SortedAccess, 1); st != BreakerClosed {
			t.Errorf("hungFirst=%v: healthy source's breaker is %v", hungFirst, st)
		}
		// The spent deadline does not leak into the next access.
		if _, _, err := sess.SortedNext(1); err != nil {
			t.Errorf("hungFirst=%v: access after the timeout: %v", hungFirst, err)
		}
	}
}
