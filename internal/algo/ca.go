package algo

import (
	"math"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/state"
)

// CA is Fagin's Combined Algorithm for the "random access expensive" cells
// of Figure 2. It interleaves NRA-style equal-depth sorted rounds with
// occasional exhaustive probes: after every h sorted rounds — h being the
// random/sorted unit-cost ratio, so probe spending tracks sorted spending
// — it fully evaluates the most promising incomplete seen object (the one
// with the greatest maximal-possible score). It halts as soon as k
// complete objects dominate every other candidate's upper bound.
type CA struct{}

// Name returns "CA".
func (CA) Name() string { return "CA" }

// Run executes CA.
func (CA) Run(p *Problem) (*Result, error) {
	if err := p.Begin(); err != nil {
		return nil, err
	}
	sess := p.Session
	if err := requireAll("CA", sess, true, true); err != nil {
		return nil, err
	}
	tab, err := state.NewTable(sess.N(), sess.M(), p.F)
	if err != nil {
		return nil, err
	}
	preds := roundRobinPreds(sess)
	h := costRatio(sess)

	var scratch []int
	round := 0
	for {
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
			tab.ObserveSorted(i, obj, s)
		}
		round++
		if round%h == 0 {
			// Probe phase: complete the incomplete seen object with the
			// greatest maximal-possible score.
			best, bestUp := -1, -1.0
			for u := 0; u < tab.N(); u++ {
				if !tab.Seen(u) || tab.Complete(u) {
					continue
				}
				if up := tab.Upper(u); best == -1 || up > bestUp || (up == bestUp && u > best) {
					best, bestUp = u, up
				}
			}
			if best >= 0 {
				scratch = tab.UnknownPreds(best, scratch[:0])
				for _, j := range scratch {
					v, err := sess.Random(j, best)
					if err != nil {
						return nil, err
					}
					tab.ObserveRandom(j, best, v)
				}
			}
		}
		if items, ok := completeHalt(tab, p.K); ok {
			return &Result{Items: items, Ledger: sess.Ledger()}, nil
		}
		if !advanced {
			break // all lists exhausted: everything is complete
		}
	}
	items, _ := completeHalt(tab, min(p.K, tab.SeenCount()))
	return &Result{Items: items, Ledger: sess.Ledger()}, nil
}

// costRatio computes CA's probe period h = max(1, round(avg cr / avg cs)),
// the random/sorted unit-cost ratio averaged across predicates.
func costRatio(sess *access.Session) int {
	var cr, cs float64
	for i := 0; i < sess.M(); i++ {
		pc := sess.Costs(i)
		cs += pc.Sorted.Units()
		cr += pc.Random.Units()
	}
	if cs <= 0 {
		return 1
	}
	h := int(math.Round(cr / cs))
	if h < 1 {
		h = 1
	}
	return h
}

// completeHalt checks whether k complete objects dominate every other
// object's maximal-possible score (Theorem 1's halting condition applied
// to exact-scored candidates only, which is how CA-style algorithms halt).
// When it fires, the ranked answer items are returned.
func completeHalt(tab *state.Table, k int) ([]Item, bool) {
	if k == 0 {
		return nil, true
	}
	type cand struct {
		obj int
		ex  float64
	}
	// k is the query's, and may exceed the database: size by what exists.
	top := make([]cand, 0, min(k, tab.N()))
	worse := func(a, b cand) bool { return data.Less(a.ex, a.obj, b.ex, b.obj) }
	for u := 0; u < tab.N(); u++ {
		if !tab.Complete(u) {
			continue
		}
		ex, _ := tab.Exact(u)
		c := cand{obj: u, ex: ex}
		pos := len(top)
		for pos > 0 && worse(top[pos-1], c) {
			pos--
		}
		if pos < k {
			if len(top) < k {
				top = append(top, cand{})
			}
			copy(top[pos+1:], top[pos:len(top)-1])
			top[pos] = c
		}
	}
	if len(top) < k {
		return nil, false
	}
	kth := top[len(top)-1]
	inTop := make(map[int]bool, k)
	for _, c := range top {
		inTop[c.obj] = true
	}
	if !tab.AllSeen() && data.Less(kth.ex, kth.obj, tab.UnseenUpper(), state.UnseenID) {
		return nil, false
	}
	for u := 0; u < tab.N(); u++ {
		if inTop[u] || (!tab.Seen(u) && tab.KnownCount(u) == 0) {
			// Fully-unseen objects are covered by the unseen bound above.
			continue
		}
		if data.Less(kth.ex, kth.obj, tab.Upper(u), u) {
			return nil, false
		}
	}
	items := make([]Item, len(top))
	for i, c := range top {
		items[i] = Item{Obj: c.obj, Score: c.ex, Exact: true}
	}
	return items, true
}
