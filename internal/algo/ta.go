package algo

import (
	"errors"
	"fmt"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/state"
)

// TA is Fagin's Threshold Algorithm, the classic for the uniform-cost
// cells of Figure 2. Its three characteristic behaviours (Section 8.1):
// equal-depth sorted access (one access per list per round),
// exhaustive random access (every newly seen object is fully probed
// immediately), and early stop (halt as soon as k objects score at least
// the threshold T = F(ell_1, ..., ell_m)).
//
// TA requires sorted and random capability on every predicate.
type TA struct{}

// Name returns "TA".
func (TA) Name() string { return "TA" }

// Run executes TA.
func (TA) Run(p *Problem) (*Result, error) {
	cur, err := TA{}.Open(p)
	if err != nil {
		return nil, err
	}
	return cur.Next(p.K)
}

// TACursor is TA's resumable form: the round-robin sorted rounds, the
// fully-probed object pool, and the threshold state survive between pages.
// TA's rounds do not depend on k — only the early-stop test does, and the
// test for a larger k is strictly harder — so resuming k -> k+delta runs
// exactly the extra rounds a fresh k+delta execution would have run, and
// the concatenated pages equal its ranking (the ranking's prefix is stable
// because the stop test proves the current top-target is final before
// emitting).
type TACursor struct {
	sess     *access.Session
	tab      *state.Table
	preds    []int
	probeBuf []int
	done     []Item
	emittedN int
	drained  bool
	closed   bool
	err      error

	// Monitor, when non-nil, receives every performed access — the same
	// checkpoint hook NC cursors fire, so one divergence monitor covers
	// all three executors. TA has no plan degrees of freedom to re-plan,
	// but divergence and guard telemetry still flow. Set between pages.
	Monitor AccessObserver
}

// Open suspends TA over the problem before its first access. The problem
// is consumed; p.K only validates the query.
func (TA) Open(p *Problem) (*TACursor, error) {
	if err := p.Begin(); err != nil {
		return nil, err
	}
	sess := p.Session
	if err := requireAll("TA", sess, true, true); err != nil {
		return nil, err
	}
	tab, err := state.NewTable(sess.N(), sess.M(), p.F)
	if err != nil {
		return nil, err
	}
	return &TACursor{
		sess:  sess,
		tab:   tab,
		preds: roundRobinPreds(sess),
	}, nil
}

// Next is Page into a fresh Result.
func (tc *TACursor) Next(delta int) (*Result, error) {
	res := new(Result)
	if err := tc.Page(res, delta); err != nil {
		return nil, err
	}
	return res, nil
}

// Page resumes TA's sorted rounds until delta more answers clear the
// threshold (fewer if the lists are exhausted first). The page carries
// only the new answers; the ledger is cumulative.
func (tc *TACursor) Page(res *Result, delta int) error {
	if tc.closed {
		return ErrCursorClosed
	}
	if tc.err != nil {
		return tc.err
	}
	if delta < 0 {
		return fmt.Errorf("algo: cursor page size must be >= 0, got %d", delta)
	}
	if delta == 0 {
		tc.page(res, nil)
		return nil
	}
	target := tc.emittedN + delta
	for !tc.drained && !provenTop(tc.tab, tc.done, target) {
		if err := tc.round(); err != nil {
			return err
		}
	}
	ranked := rankItems(append([]Item(nil), tc.done...), target)
	page := ranked[min(tc.emittedN, len(ranked)):]
	tc.emittedN += len(page)
	tc.page(res, page)
	return nil
}

// page writes the new answers and the cumulative ledger into res's own
// storage.
func (tc *TACursor) page(res *Result, items []Item) {
	*res = Result{Items: append(res.Items[:0], items...), Ledger: res.Ledger}
	tc.sess.LedgerInto(&res.Ledger)
}

// round performs one equal-depth sorted round with TA's exhaustive random
// probing of every newly seen object; it marks the cursor drained when
// every list is exhausted.
func (tc *TACursor) round() error {
	advanced := false
	for _, i := range tc.preds {
		if tc.sess.SortedExhausted(i) {
			continue
		}
		obj, s, err := tc.sess.SortedNext(i)
		if err != nil {
			tc.err = err
			return err
		}
		advanced = true
		// TA fully probes an object at its first sighting, so an object
		// seen before this access has already been processed.
		processed := tc.tab.Seen(obj)
		tc.tab.ObserveSorted(i, obj, s)
		if tc.Monitor != nil {
			tc.Monitor.ObserveAccess(tc.tab, Choice{Kind: access.SortedAccess, Pred: i}, obj, s)
		}
		if processed {
			continue
		}
		tc.probeBuf = tc.tab.UnknownPreds(obj, tc.probeBuf[:0])
		for _, j := range tc.probeBuf {
			v, err := tc.sess.Random(j, obj)
			if err != nil {
				tc.err = err
				return err
			}
			tc.tab.ObserveRandom(j, obj, v)
			if tc.Monitor != nil {
				tc.Monitor.ObserveAccess(tc.tab, Choice{Kind: access.RandomAccess, Pred: j}, obj, v)
			}
		}
		exact, _ := tc.tab.Exact(obj)
		tc.done = append(tc.done, Item{Obj: obj, Score: exact, Exact: true})
	}
	if !advanced {
		tc.drained = true // every list exhausted: all objects processed
	}
	return nil
}

// Emitted reports the total answers produced across all pages.
func (tc *TACursor) Emitted() int { return tc.emittedN }

// Exhausted reports whether every object has been emitted.
func (tc *TACursor) Exhausted() bool { return tc.drained && tc.emittedN >= len(tc.done) }

// Ledger snapshots the cumulative access ledger.
func (tc *TACursor) Ledger() access.Ledger { return tc.sess.Ledger() }

// Close ends the run. Idempotent.
func (tc *TACursor) Close() { tc.closed = true }

var _ Pager = (*TACursor)(nil)
var _ Pager = (*Cursor)(nil)

// provenTop is the threshold stop of TA and Quick-Combine over done, the
// fully probed objects: its k-th best outranks every unseen object, equal
// scores included.
func provenTop(tab *state.Table, done []Item, k int) bool {
	if len(done) < k {
		return false
	}
	kth := kthBest(done, k)
	return tab.UnseenBelow(kth.Score, kth.Obj)
}

// kthBest returns the k-th best of items (k <= len(items)) under
// data.Less's order: higher score first, then higher id.
func kthBest(items []Item, k int) Item {
	// Selection by partial copy; n stays small enough that an O(n log n)
	// approach is irrelevant to access-cost experiments, but we avoid
	// sorting the caller's slice.
	top := make([]Item, 0, k)
	for _, it := range items {
		pos := len(top)
		for pos > 0 && data.Less(top[pos-1].Score, top[pos-1].Obj, it.Score, it.Obj) {
			pos--
		}
		if pos < k {
			if len(top) < k {
				top = append(top, Item{})
			}
			copy(top[pos+1:], top[pos:len(top)-1])
			top[pos] = it
		}
	}
	return top[len(top)-1]
}

// FA is Fagin's original algorithm [FA96]: round-robin sorted access until
// at least k objects have been seen under *every* predicate, then random
// access to complete every seen object, then rank. It is correct for any
// monotone F but accesses far more than TA; it serves as the historical
// baseline of the uniform cells.
type FA struct{}

// Name returns "FA".
func (FA) Name() string { return "FA" }

// Run executes FA.
func (FA) Run(p *Problem) (*Result, error) {
	if err := p.Begin(); err != nil {
		return nil, err
	}
	sess := p.Session
	if err := requireAll("FA", sess, true, true); err != nil {
		return nil, err
	}
	tab, err := state.NewTable(sess.N(), sess.M(), p.F)
	if err != nil {
		return nil, err
	}
	preds := roundRobinPreds(sess)
	m := len(preds)

	// Phase 1: equal-depth sorted rounds until k objects are seen in all
	// lists. During this phase every known score came from sorted access,
	// so KnownCount(u) == m iff u appeared in every list.
	seenAll := 0
	for seenAll < p.K {
		advanced := false
		for _, i := range preds {
			if sess.SortedExhausted(i) {
				continue
			}
			obj, s, err := sess.SortedNext(i)
			if err != nil {
				return nil, err
			}
			advanced = true
			before := tab.KnownCount(obj)
			tab.ObserveSorted(i, obj, s)
			if before == m-1 && tab.KnownCount(obj) == m {
				seenAll++
			}
		}
		if !advanced {
			break
		}
	}

	// Phase 2: complete every seen object by random access and rank.
	var done []Item
	var scratch []int
	for u := 0; u < sess.N(); u++ {
		if !sess.Seen(u) {
			continue
		}
		scratch = tab.UnknownPreds(u, scratch[:0])
		for _, j := range scratch {
			v, err := sess.Random(j, u)
			if err != nil {
				return nil, err
			}
			tab.ObserveRandom(j, u, v)
		}
		exact, _ := tab.Exact(u)
		done = append(done, Item{Obj: u, Score: exact, Exact: true})
	}
	return &Result{Items: rankItems(done, p.K), Ledger: sess.Ledger()}, nil
}

// ErrInapplicable marks algorithms refusing a scenario or scoring function
// outside their design envelope (e.g. Quick-Combine on min, whose
// derivative indicator the paper notes is inapplicable).
var ErrInapplicable = errors.New("algo: algorithm inapplicable")
