package algo

import (
	"fmt"

	"repro/internal/state"
)

// quickIndicatorDepth is the lookback window (in sorted accesses) of the
// Quick-/Stream-Combine steering indicator, the d of Guentzer et al.
const quickIndicatorDepth = 2

// combineSteer holds the shared steering machinery of Quick-Combine and
// Stream-Combine: pick the next sorted list by the indicator
//
//	Delta_i = dF/dx_i (at the current bounds) * (ell_i d accesses ago - ell_i now)
//
// i.e. steer toward the list whose recent score drop, weighted by the
// function's sensitivity to it, shrinks the threshold fastest. The
// indicator requires partial derivatives; for functions like min the
// paper notes it is inapplicable, and we surface ErrInapplicable.
type combineSteer struct {
	hist [][]float64 // per list: last-seen values, newest last
}

func newCombineSteer(m int) *combineSteer {
	return &combineSteer{hist: make([][]float64, m)}
}

func (c *combineSteer) observe(i int, last float64) {
	h := append(c.hist[i], last)
	if len(h) > quickIndicatorDepth+1 {
		h = h[1:]
	}
	c.hist[i] = h
}

// next picks the list with the greatest indicator among candidates.
// Lists observed fewer than two times get priority (their drop cannot be
// estimated yet), and when every estimated indicator is zero — flat
// score plateaus — the least-advanced list is chosen instead: a steering
// heuristic must never starve a list forever on a stale zero-drop
// estimate, or bounds on the starved predicate stay at their plateau and
// the threshold cannot fall.
func (c *combineSteer) next(tab *state.Table, candidates []int) (int, error) {
	if i, ok := staleness(tab, candidates); ok {
		return i, nil
	}
	bounds := make([]float64, tab.M())
	for i := range bounds {
		bounds[i] = tab.LastSeen(i)
	}
	best, bestDelta := -1, -1.0
	for _, i := range candidates {
		if len(c.hist[i]) < 2 {
			return i, nil // not yet estimable: sample it
		}
		d, ok := tab.Func().Derivative(bounds, i)
		if !ok {
			return 0, fmt.Errorf("%w: %s has no usable partial derivative for the Quick-Combine indicator", ErrInapplicable, tab.Func().Name())
		}
		h := c.hist[i]
		drop := h[0] - h[len(h)-1]
		delta := d * drop
		if delta > bestDelta {
			best, bestDelta = i, delta
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("algo: combine steering found no candidate list")
	}
	if bestDelta <= 0 {
		// All drops flat: advance the shallowest list.
		best = candidates[0]
		for _, i := range candidates[1:] {
			if tab.Depth(i) < tab.Depth(best) {
				best = i
			}
		}
	}
	return best, nil
}

// staleness is the steering family's bounded-unfairness guard: a list's
// drop estimate only refreshes when the list is advanced, so a frozen
// low estimate could starve a list forever on data where drops are
// actually similar (a positive-feedback lock-in). When the depth spread
// across candidate lists exceeds a 2x band (plus slack), the shallowest
// list is advanced to refresh its estimate.
func staleness(tab *state.Table, candidates []int) (int, bool) {
	if len(candidates) < 2 {
		return 0, false
	}
	shallow, deep := candidates[0], candidates[0]
	for _, i := range candidates[1:] {
		if tab.Depth(i) < tab.Depth(shallow) {
			shallow = i
		}
		if tab.Depth(i) > tab.Depth(deep) {
			deep = i
		}
	}
	if tab.Depth(deep) > 2*tab.Depth(shallow)+8 {
		return shallow, true
	}
	return 0, false
}

// QuickCombine is the TA enhancement of Guentzer, Balke and Kiessling:
// exhaustive probing of newly seen objects and TA's threshold stop, but
// sorted accesses are steered by the derivative indicator instead of
// round-robin. It refuses scoring functions without usable derivatives.
type QuickCombine struct{}

// Name returns "Quick-Combine".
func (QuickCombine) Name() string { return "Quick-Combine" }

// Run executes Quick-Combine.
func (QuickCombine) Run(p *Problem) (*Result, error) {
	if err := p.Begin(); err != nil {
		return nil, err
	}
	sess := p.Session
	if err := requireAll("Quick-Combine", sess, true, true); err != nil {
		return nil, err
	}
	tab, err := state.NewTable(sess.N(), sess.M(), p.F)
	if err != nil {
		return nil, err
	}
	steer := newCombineSteer(sess.M())
	var done []Item
	var scratch []int

	for {
		var candidates []int
		for i := 0; i < sess.M(); i++ {
			if !sess.SortedExhausted(i) {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) == 0 {
			break
		}
		i, err := steer.next(tab, candidates)
		if err != nil {
			return nil, err
		}
		obj, s, err := sess.SortedNext(i)
		if err != nil {
			return nil, err
		}
		processed := tab.Seen(obj) // fully probed at its first sighting
		tab.ObserveSorted(i, obj, s)
		steer.observe(i, s)
		if !processed {
			scratch = tab.UnknownPreds(obj, scratch[:0])
			for _, j := range scratch {
				v, err := sess.Random(j, obj)
				if err != nil {
					return nil, err
				}
				tab.ObserveRandom(j, obj, v)
			}
			exact, _ := tab.Exact(obj)
			done = append(done, Item{Obj: obj, Score: exact, Exact: true})
		}
		if len(done) >= p.K && kthBest(done, p.K) >= tab.UnseenUpper() {
			break
		}
	}
	return &Result{Items: rankItems(done, p.K), Ledger: sess.Ledger()}, nil
}

// StreamCombine is the sorted-access-only sibling of Quick-Combine
// (Guentzer et al.): NRA's bound maintenance and stopping rule with the
// same derivative-steered choice of which list to advance.
type StreamCombine struct{}

// Name returns "Stream-Combine".
func (StreamCombine) Name() string { return "Stream-Combine" }

// Run executes Stream-Combine.
func (StreamCombine) Run(p *Problem) (*Result, error) {
	if err := p.Begin(); err != nil {
		return nil, err
	}
	sess := p.Session
	if err := requireAll("Stream-Combine", sess, true, false); err != nil {
		return nil, err
	}
	tab, err := state.NewTable(sess.N(), sess.M(), p.F)
	if err != nil {
		return nil, err
	}
	steer := newCombineSteer(sess.M())

	for {
		var candidates []int
		for i := 0; i < sess.M(); i++ {
			if !sess.SortedExhausted(i) {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) == 0 {
			break
		}
		i, err := steer.next(tab, candidates)
		if err != nil {
			return nil, err
		}
		obj, s, err := sess.SortedNext(i)
		if err != nil {
			return nil, err
		}
		tab.ObserveSorted(i, obj, s)
		steer.observe(i, s)
		if items, ok := nraHalt(tab, p.K); ok {
			return &Result{Items: items, Ledger: sess.Ledger()}, nil
		}
	}
	items, _ := nraHalt(tab, min(p.K, tab.SeenCount()))
	return &Result{Items: items, Ledger: sess.Ledger()}, nil
}
