// Package parallel layers bounded-concurrency execution on top of the
// sequential access-minimization framework, as Sections 3.2 and 9.1.1 of
// the paper prescribe: total access cost measures resource usage, elapsed
// time benefits from concurrency, and unbounded concurrency would abuse
// sources — so we parallelize within a concurrency limit B, dispatching
// only accesses the sequential framework itself would consider.
//
// The executor simulates time: each access occupies one of B slots for a
// latency equal to its unit cost. Dispatch follows Framework NC's logic —
// scan the current top-k candidates (K_P) in rank order; for each
// incomplete one, take the access its selector would choose and launch it
// unless an equivalent access is already in flight. Two rules keep
// resource usage near the sequential plan's:
//
//   - Sorted streams pipeline: several sorted accesses on one list may be
//     in flight at once (Web sources serve concurrent requests); their
//     results are applied in list order so the last-seen bounds stay
//     monotone.
//   - No second-guessing: if a task's chosen access cannot be launched
//     (its task already has an access in flight), the task is skipped
//     rather than degraded to a different access kind — firing probes the
//     sequential selector would not fire is exactly the speculation that
//     inflates cost.
package parallel

import (
	"container/heap"
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/obs"
	"repro/internal/state"
)

// Result extends the sequential result with simulated timing.
type Result struct {
	Items   []algo.Item
	Ledger  access.Ledger
	Elapsed float64 // simulated elapsed time, in cost units
	MaxUsed int     // peak number of concurrently occupied slots
}

// Cost returns the total access cost (resource usage) of the run.
func (r *Result) Cost() access.Cost { return r.Ledger.TotalCost }

// Executor runs a problem with at most B concurrent accesses, choosing
// accesses with the given selector (typically an optimizer-produced SR/G
// configuration).
type Executor struct {
	B   int
	Sel algo.Selector
	// Obs, when non-nil, receives executor events: InflightChange on every
	// dispatch and completion (even though time is simulated, the gauge
	// tracks slot occupancy) and DispatchStall when a fill round leaves
	// slots empty. Access-level events flow from the session's observer.
	Obs obs.Observer
}

// flight is one in-flight access in the simulated timeline.
type flight struct {
	done  float64
	seq   int
	kind  access.Kind
	pred  int
	obj   int // object returned (sa) or targeted (ra)
	task  int // the candidate whose task triggered the dispatch
	rank  int // list rank, for ordered application of sorted results
	score float64
}

type flightHeap []flight

func (h flightHeap) Len() int { return len(h) }
func (h flightHeap) Less(a, b int) bool {
	if h[a].done != h[b].done {
		return h[a].done < h[b].done
	}
	return h[a].seq < h[b].seq
}
func (h flightHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *flightHeap) Push(x interface{}) { *h = append(*h, x.(flight)) }
func (h *flightHeap) Pop() interface{} {
	old := *h
	n := len(old)
	f := old[n-1]
	*h = old[:n-1]
	return f
}

// Run executes the problem under the concurrency bound. The context
// cancels the simulated run between dispatch rounds.
func (ex *Executor) Run(ctx context.Context, p *algo.Problem) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ex.B < 1 {
		return nil, fmt.Errorf("parallel: concurrency bound must be >= 1, got %d", ex.B)
	}
	if ex.Sel == nil {
		return nil, fmt.Errorf("parallel: executor requires a selector")
	}
	if err := p.Begin(); err != nil {
		return nil, err
	}
	sess := p.Session
	tab, err := state.NewTable(sess.N(), sess.M(), p.F)
	if err != nil {
		return nil, err
	}
	q := state.NewQueue(tab, sess.NoWildGuesses())
	// taskBusy limits each unsatisfied task to one in-flight access:
	// concurrency comes from servicing *distinct* tasks (the paper's
	// observation that any incomplete member of K_P is equally necessary).
	taskBusy := make(map[int]bool, ex.B)
	// Sorted results apply in list order: applyRank is the next rank to
	// apply per list, sortedBuf holds completed-but-out-of-order results.
	applyRank := make([]int, sess.M())
	sortedBuf := make([]map[int]flight, sess.M())
	for i := range sortedBuf {
		sortedBuf[i] = make(map[int]flight)
	}

	var (
		items    []algo.Item
		inflight flightHeap
		clock    float64
		seq      int
		maxUsed  int
	)
	// Flights still out when the run returns — the top-k is proven, a
	// dispatch failed, the context ended — are never reported finished one
	// by one; settle them once so the inflight gauge returns to zero.
	defer func() {
		if ex.Obs != nil && len(inflight) > 0 {
			ex.Obs.Observe(obs.Event{Kind: obs.InflightChange, Value: -float64(len(inflight))})
		}
	}()

	// dispatchOne scans K_P in rank order and launches the first task's
	// chosen access. It reports whether a dispatch happened.
	dispatchOne := func() (bool, error) {
		for _, cand := range q.TopN(p.K) {
			if taskBusy[cand.ID] {
				continue
			}
			if cand.ID != state.UnseenID && tab.Complete(cand.ID) {
				continue // will be emitted once it surfaces to the top
			}
			choices := algo.NecessaryChoices(tab, sess, cand.ID)
			if len(choices) == 0 {
				continue // everything this task needs is already in flight
			}
			ch := ex.Sel.Choose(tab, sess, cand.ID, choices)
			var f flight
			switch ch.Kind {
			case access.SortedAccess:
				rank := sess.SortedDepth(ch.Pred)
				obj, s, err := sess.SortedNext(ch.Pred)
				if err != nil {
					return false, err
				}
				f = flight{kind: ch.Kind, pred: ch.Pred, obj: obj, rank: rank, score: s}
				f.done = clock + sess.Costs(ch.Pred).Sorted.Units()
			case access.RandomAccess:
				s, err := sess.Random(ch.Pred, cand.ID)
				if err != nil {
					return false, err
				}
				f = flight{kind: ch.Kind, pred: ch.Pred, obj: cand.ID, score: s}
				f.done = clock + sess.Costs(ch.Pred).Random.Units()
			}
			f.task = cand.ID
			f.seq = seq
			seq++
			taskBusy[cand.ID] = true
			heap.Push(&inflight, f)
			return true, nil
		}
		return false, nil
	}

	applySorted := func(f flight) {
		sortedBuf[f.pred][f.rank] = f
		for {
			g, ok := sortedBuf[f.pred][applyRank[f.pred]]
			if !ok {
				break
			}
			delete(sortedBuf[f.pred], applyRank[f.pred])
			applyRank[f.pred]++
			tab.ObserveSorted(g.pred, g.obj, g.score)
			q.Add(g.obj) // a no-op if g.obj is already a candidate or was emitted
		}
	}

	for len(items) < p.K {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("parallel: run cancelled: %w", err)
		}
		// Emit every complete candidate that has surfaced to the top; the
		// paper's incremental form of Theorem 1's halting condition.
		for len(items) < p.K {
			top, ok := q.Peek()
			if !ok || top.ID == state.UnseenID || !tab.Complete(top.ID) {
				break
			}
			q.Pop()
			q.Retire(top.ID)
			exact, _ := tab.Exact(top.ID)
			items = append(items, algo.Item{Obj: top.ID, Score: exact, Exact: true})
		}
		if len(items) >= p.K {
			break
		}
		if _, ok := q.Peek(); !ok {
			break // fewer than k objects exist
		}
		// Fill free slots with necessary accesses.
		for len(inflight) < ex.B {
			ok, err := dispatchOne()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if ex.Obs != nil {
				ex.Obs.Observe(obs.Event{Kind: obs.InflightChange, Value: +1})
			}
		}
		if len(inflight) > maxUsed {
			maxUsed = len(inflight)
		}
		if len(inflight) == 0 {
			return nil, fmt.Errorf("parallel: stuck with no dispatchable access and %d/%d answers", len(items), p.K)
		}
		if ex.Obs != nil && len(inflight) < ex.B {
			ex.Obs.Observe(obs.Event{Kind: obs.DispatchStall})
		}
		// Advance simulated time to the earliest completion and apply it.
		f := heap.Pop(&inflight).(flight)
		clock = f.done
		delete(taskBusy, f.task)
		if ex.Obs != nil {
			ex.Obs.Observe(obs.Event{Kind: obs.InflightChange, Value: -1})
		}
		switch f.kind {
		case access.SortedAccess:
			applySorted(f)
		case access.RandomAccess:
			tab.ObserveRandom(f.pred, f.obj, f.score)
		}
	}
	return &Result{
		Items:   items,
		Ledger:  sess.Ledger(),
		Elapsed: clock,
		MaxUsed: maxUsed,
	}, nil
}
