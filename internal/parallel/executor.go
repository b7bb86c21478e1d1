// Package parallel layers bounded-concurrency execution on top of the
// sequential access-minimization framework, as Sections 3.2 and 9.1.1 of
// the paper prescribe: total access cost measures resource usage, elapsed
// time benefits from concurrency, and unbounded concurrency would abuse
// sources — so we parallelize within a concurrency limit B, dispatching
// only accesses the sequential framework itself would consider.
//
// There is one executor. It admits accesses through the problem's
// access.Session — legality, budget, breakers and billing are the session's,
// exactly as in a sequential run — and what it adds is a window of up to B
// admitted accesses and a completion source that says which finishes next:
// simulated (performed at dispatch, finishing at clock + unit cost) or live
// (performed in a goroutine, finishing when the source answers). Dispatch
// follows Framework NC's logic — scan the current top-k candidates (K_P) in
// rank order; for each incomplete one, take the access its selector would
// choose and launch it unless an equivalent access is already in flight.
// Two rules keep resource usage near the sequential plan's:
//
//   - Sorted streams pipeline: several sorted accesses on one list may be
//     in flight at once (Web sources serve concurrent requests); their
//     results are applied in list order so the last-seen bounds stay
//     monotone.
//   - No second-guessing: if a task's chosen access cannot be launched
//     (its task already has an access out), the task is skipped rather than
//     degraded to a different access kind — firing probes the sequential
//     selector would not fire is exactly the speculation that inflates
//     cost. A task stays busy until its access's result is applied to the
//     table, not merely returned: a sorted result waiting its turn in list
//     order has told the table nothing yet, and dispatching its task again
//     would buy the same information twice.
package parallel

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/obs"
	"repro/internal/state"
)

// Result extends the sequential result with the run's timing.
type Result struct {
	algo.Result
	// Elapsed is the completion source's clock when the answer was proven:
	// cost units for a simulated run, seconds for a live one.
	Elapsed float64
	MaxUsed int // peak number of concurrently occupied slots
}

// Executor runs a problem with at most B concurrent accesses, choosing
// accesses with the given selector (typically an optimizer-produced SR/G
// configuration).
type Executor struct {
	B   int
	Sel algo.Selector
	// Live performs the accesses for real — one goroutine per access in
	// flight, against the wall clock — where the default simulates time: each
	// access occupies a slot for a latency equal to its unit cost. The
	// backend of a live run must be safe for concurrent use (websim clients
	// and DatasetBackend are).
	Live bool
	// Obs, when non-nil, receives executor events: InflightChange on every
	// dispatch and completion and DispatchStall when a fill round leaves
	// slots empty. Access-level events flow from the session's observer.
	Obs obs.Observer
}

// flight is one admitted access on its way through a completion source.
type flight struct {
	access.Pending
	task int     // the candidate whose task triggered the dispatch
	done float64 // completion time on the source's clock
	seq  int     // dispatch order, the tie-break of simulated time
}

// source performs admitted accesses and orders their completions; it is all
// a simulated and a live run differ in.
type source interface {
	// start begins performing f's access.
	start(f flight)
	// next blocks until a started access has been performed and returns it
	// with done set. It fails only when ctx ends first.
	next(ctx context.Context) (flight, error)
}

// simulated performs each access as it is dispatched and completes them in
// order of clock + unit cost.
type simulated struct {
	sess  *access.Session
	out   flightHeap
	clock float64
	seq   int
}

func (s *simulated) start(f flight) {
	s.sess.Perform(&f.Pending)
	f.done = s.clock + f.Cost.Units()
	f.seq = s.seq
	s.seq++
	heap.Push(&s.out, f)
}

func (s *simulated) next(context.Context) (flight, error) {
	f := heap.Pop(&s.out).(flight)
	s.clock = f.done
	return f, nil
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

// live performs each access in a goroutine of its own. A goroutine whose
// run has stopped listening — failed or cancelled, its context ended —
// gives up delivering and exits, so results need only be sized for the
// accesses that are usually out, not for every one that could be.
type live struct {
	ctx     context.Context // the run's own: ends when Run returns
	sess    *access.Session
	results chan flight
	began   time.Time
}

func (l *live) start(f flight) {
	go func() {
		l.sess.Perform(&f.Pending)
		select {
		case l.results <- f:
		case <-l.ctx.Done():
		}
	}()
}

func (l *live) next(ctx context.Context) (flight, error) {
	select {
	case f := <-l.results:
		f.done = time.Since(l.began).Seconds()
		return f, nil
	case <-ctx.Done():
		return flight{}, ctx.Err()
	}
}

// Run executes the problem under the concurrency bound over the scratch's
// pooled table and queue (nil allocates fresh ones). Every access admitted
// is settled — awaited and billed — before a successful run returns. A run
// that fails or whose context ends cancels the accesses still out and
// returns without billing them; an access failure is terminal. When the
// session's budget cannot cover the next access the run stops dispatching,
// settles what is out and answers Truncated with the best current
// candidates, like every other NC execution.
func (ex *Executor) Run(ctx context.Context, p *algo.Problem, sc *algo.Scratch) (*Result, error) {
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
	if sc == nil {
		sc = &algo.Scratch{}
	}
	sess := p.Session
	tab, q, err := sc.Prepare(sess.N(), sess.M(), p.F, sess.NoWildGuesses())
	if err != nil {
		return nil, err
	}
	// The session performs under a context of the run's own, so returning
	// early cancels whatever is still out.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sess.Bind(ctx)
	var src source = &simulated{sess: sess}
	if ex.Live {
		src = &live{ctx: ctx, sess: sess, results: make(chan flight, ex.busyHint(p)), began: time.Now()}
	}
	return ex.run(ctx, p, tab, q, src)
}

// busyHint sizes what scales with the accesses out at once. B is caller
// input and may dwarf the query: only top-K candidates dispatch, so the
// tasks busy together are what to size by — min(B, K+1), spelled so that
// no K overflows it.
func (ex *Executor) busyHint(p *algo.Problem) int { return 1 + min(ex.B-1, p.K) }

// run is the one dispatch / settle / apply / emit loop.
func (ex *Executor) run(ctx context.Context, p *algo.Problem, tab *state.Table, q *state.Queue, src source) (*Result, error) {
	sess := p.Session
	// busy limits each unsatisfied task to one access at a time:
	// concurrency comes from servicing *distinct* tasks (the paper's
	// observation that any incomplete member of K_P is equally necessary).
	busy := make(map[int]bool, ex.busyHint(p))
	// Sorted results apply in list order: applyRank is the next rank to
	// apply per list, reorder holds settled results that came back early.
	applyRank := make([]int, sess.M())
	reorder := make([]map[int]flight, sess.M())
	for i := range reorder {
		reorder[i] = make(map[int]flight)
	}
	var (
		res         = &Result{}
		choices     []algo.Choice
		inflight    int
		outOfBudget bool
	)
	// Accesses still out when the run fails are never reported finished one
	// by one; settle them once so the inflight gauge returns to zero.
	defer func() {
		if ex.Obs != nil && inflight > 0 {
			ex.Obs.Observe(obs.Event{Kind: obs.InflightChange, Value: -float64(inflight)})
		}
	}()

	// dispatchOne scans K_P in rank order and admits and starts the first
	// free task's chosen access. It reports whether a dispatch happened.
	dispatchOne := func() (bool, error) {
		for _, cand := range q.TopN(p.K) {
			if busy[cand.ID] {
				continue
			}
			if cand.ID != state.UnseenID && tab.Complete(cand.ID) {
				continue // will be emitted once it surfaces to the top
			}
			choices = algo.AppendNecessaryChoices(choices[:0], tab, sess, cand.ID)
			if len(choices) == 0 {
				continue // everything this task needs is already out
			}
			ch := ex.Sel.Choose(tab, sess, cand.ID, choices)
			f := flight{task: cand.ID}
			if err := sess.Admit(&f.Pending, ch.Kind, ch.Pred, cand.ID); err != nil {
				return false, err
			}
			busy[cand.ID] = true
			src.start(f)
			return true, nil
		}
		return false, nil
	}

	// await takes the next completion and settles it on the session.
	await := func() (flight, error) {
		f, err := src.next(ctx)
		if err != nil {
			return f, fmt.Errorf("parallel: run cancelled: %w", err)
		}
		inflight--
		if ex.Obs != nil {
			ex.Obs.Observe(obs.Event{Kind: obs.InflightChange, Value: -1})
		}
		_, _, err = sess.Settle(&f.Pending)
		return f, err
	}

	// apply feeds a settled result to the table and frees its task.
	apply := func(f flight) {
		if f.Kind == access.RandomAccess {
			tab.ObserveRandom(f.Pred, f.Obj, f.Score)
			delete(busy, f.task)
			return
		}
		reorder[f.Pred][f.Rank] = f
		for {
			g, ok := reorder[f.Pred][applyRank[f.Pred]]
			if !ok {
				return
			}
			delete(reorder[f.Pred], g.Rank)
			applyRank[f.Pred]++
			tab.ObserveSorted(g.Pred, g.Obj, g.Score)
			q.Add(g.Obj) // a no-op if g.Obj is already a candidate or was emitted
			delete(busy, g.task)
		}
	}

	for len(res.Items) < p.K {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("parallel: run cancelled: %w", err)
		}
		// Emit every complete candidate that has surfaced to the top; the
		// paper's incremental form of Theorem 1's halting condition.
		for len(res.Items) < p.K {
			top, ok := q.Peek()
			if !ok || top.ID == state.UnseenID || !tab.Complete(top.ID) {
				break
			}
			q.Pop()
			q.Retire(top.ID)
			exact, _ := tab.Exact(top.ID)
			res.Items = append(res.Items, algo.Item{Obj: top.ID, Score: exact, Exact: true})
		}
		if len(res.Items) >= p.K {
			break
		}
		if _, ok := q.Peek(); !ok {
			break // fewer than k objects exist
		}
		// Fill free slots with necessary accesses.
		for !outOfBudget && inflight < ex.B {
			ok, err := dispatchOne()
			if errors.Is(err, access.ErrBudgetExhausted) {
				outOfBudget = true // stop dispatching; what is out may still prove the answer
				break
			}
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			inflight++
			if ex.Obs != nil {
				ex.Obs.Observe(obs.Event{Kind: obs.InflightChange, Value: +1})
			}
		}
		res.MaxUsed = max(res.MaxUsed, inflight)
		if inflight == 0 {
			if outOfBudget {
				break
			}
			return nil, fmt.Errorf("parallel: stuck with no dispatchable access and %d/%d answers", len(res.Items), p.K)
		}
		if ex.Obs != nil && inflight < ex.B {
			ex.Obs.Observe(obs.Event{Kind: obs.DispatchStall})
		}
		f, err := await()
		if err != nil {
			return nil, err
		}
		res.Elapsed = f.done
		apply(f)
	}
	// The answer stands; what is still out was admitted and is billed. A
	// failure among it no longer matters: Settle has released and reported it.
	for inflight > 0 {
		if _, err := await(); err != nil && ctx.Err() != nil {
			return nil, err
		}
	}
	// Candidates left with the answer short: only an exhausted budget ends
	// the loop that way. Fill with the best current ones.
	if _, unproven := q.Peek(); unproven && len(res.Items) < p.K {
		res.Truncated = true
		for len(res.Items) < p.K {
			it, ok := algo.DrainOne(tab, q)
			if !ok {
				break
			}
			res.Items = append(res.Items, it)
		}
	}
	res.Ledger = sess.Ledger()
	return res, nil
}
