package algo

import (
	"repro/internal/data"
	"repro/internal/state"
)

// NRA is Fagin's No-Random-Access algorithm for the "random access
// impossible" row of Figure 2. It performs only equal-depth sorted
// accesses, maintains lower and upper bounds per object, and halts when k
// objects' lower bounds dominate every other object's upper bound
// (including the virtual unseen bound F(ell)). NRA determines the top-k
// *set*; exact scores (and hence the internal order) are only known for
// objects that happen to be complete, so Items carry the final lower
// bounds with Exact set accordingly.
type NRA struct{}

// Name returns "NRA".
func (NRA) Name() string { return "NRA" }

// Run executes NRA.
func (NRA) Run(p *Problem) (*Result, error) {
	if err := p.Begin(); err != nil {
		return nil, err
	}
	sess := p.Session
	if err := requireAll("NRA", sess, true, false); err != nil {
		return nil, err
	}
	tab, err := state.NewTable(sess.N(), sess.M(), p.F)
	if err != nil {
		return nil, err
	}
	preds := roundRobinPreds(sess)

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
		if set, ok := nraHalt(tab, p.K); ok {
			return &Result{Items: set, Ledger: sess.Ledger()}, nil
		}
		if !advanced {
			break // exhausted without halting: fewer than k objects exist
		}
	}
	set, _ := nraHalt(tab, min(p.K, tab.SeenCount()))
	return &Result{Items: set, Ledger: sess.Ledger()}, nil
}

// nraHalt evaluates the NRA stopping rule: take the k seen objects with
// the best lower bounds (ties by higher OID); halt when the k-th of them
// outranks the upper bound of every other object, seen or unseen, equal
// scores by id. It returns the answer items when the rule fires.
func nraHalt(tab *state.Table, k int) ([]Item, bool) {
	if k == 0 {
		return nil, true
	}
	if tab.SeenCount() < k {
		return nil, false
	}
	type cand struct {
		obj int
		lo  float64
	}
	// Partial selection of the k best lower bounds among seen objects.
	top := make([]cand, 0, k)
	worse := func(a, b cand) bool { return data.Less(a.lo, a.obj, b.lo, b.obj) }
	for u := 0; u < tab.N(); u++ {
		if !tab.Seen(u) {
			continue
		}
		c := cand{obj: u, lo: tab.Lower(u)}
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
	kth := top[len(top)-1]
	if !tab.UnseenBelow(kth.lo, kth.obj) {
		return nil, false
	}
	inTop := make(map[int]bool, k)
	for _, c := range top {
		inTop[c.obj] = true
	}
	// Every other seen object must rank below the k-th lower bound, equal
	// scores by id as data.Less ranks them.
	for u := 0; u < tab.N(); u++ {
		if tab.Seen(u) && !inTop[u] && !data.Less(tab.Upper(u), u, kth.lo, kth.obj) {
			return nil, false
		}
	}
	items := make([]Item, len(top))
	for i, c := range top {
		exact := tab.Complete(c.obj)
		items[i] = Item{Obj: c.obj, Score: c.lo, Exact: exact}
	}
	return items, true
}
