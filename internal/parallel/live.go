package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/state"
)

// liveObsKind maps an access kind onto the observability mirror type.
func liveObsKind(k access.Kind) obs.AccessKind {
	if k == access.SortedAccess {
		return obs.Sorted
	}
	return obs.Random
}

// liveDenyReason classifies a failed live access for the observer.
func liveDenyReason(ctx context.Context, err error) obs.DenyReason {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return obs.DenyCancelled
	}
	return obs.DenyBackend
}

// Live executes a query against a real Backend (typically the HTTP
// web-source client of internal/websim) with genuinely concurrent
// requests, bounded by B — the deployment counterpart of the simulated
// Executor. It applies the same dispatch policy (necessary tasks only,
// pipelined sorted streams, one access per task at a time) but measures
// wall-clock time instead of simulating it, and acts as its own
// middleware runtime: it enforces legality and keeps the cost ledger,
// since a shared access.Session is deliberately single-threaded.
type Live struct {
	B   int
	Sel algo.Selector
	Scn access.Scenario
	// DisableNWG lifts the no-wild-guesses rule.
	DisableNWG bool
	// PerPredLimit additionally caps concurrent requests per predicate
	// (i.e. per source) — the politeness bound that keeps a B-way
	// middleware from hammering one slow source. Zero means no per-source
	// cap beyond B.
	PerPredLimit int
	// Obs, when non-nil, receives the run's events: AccessDone when an
	// access is billed (at dispatch — Live is its own cost ledger),
	// AccessDenied on backend failures, InflightChange around every
	// request, and DispatchStall when slots idle. It must be safe for
	// concurrent use; all emissions here happen under the coordinator.
	Obs obs.Observer
}

// LiveResult reports a live run: answers, the modeled cost ledger, and the
// actual wall-clock time spent.
type LiveResult struct {
	Items  []algo.Item
	Ledger access.Ledger
	Wall   time.Duration
}

// Cost returns the modeled total access cost.
func (r *LiveResult) Cost() access.Cost { return r.Ledger.TotalCost }

// liveState is the mutex-guarded middleware bookkeeping. Its
// algo.AccessContext methods are plain reads: the coordinator holds the
// lock around every piece of control logic, releasing it only while
// blocked on network completions.
type liveState struct {
	scn    access.Scenario
	nwg    bool
	tab    *state.Table
	cursor []int
	probed map[probe]bool // dispatched random accesses
	ns, nr []int
	cost   access.Cost
}

// probe names one random access.
type probe struct{ pred, obj int }

func (s *liveState) M() int                      { return len(s.scn.Preds) }
func (s *liveState) Costs(i int) access.PredCost { return s.scn.Preds[i] }
func (s *liveState) SortedExhausted(i int) bool  { return s.cursor[i] >= s.tab.N() }
func (s *liveState) Probed(i, u int) bool        { return s.probed[probe{i, u}] }
func (s *liveState) Seen(u int) bool             { return s.tab.Seen(u) }
func (s *liveState) NoWildGuesses() bool         { return s.nwg }

var _ algo.AccessContext = (*liveState)(nil)

// completion is one finished backend call.
type completion struct {
	kind  access.Kind
	pred  int
	obj   int
	task  int
	rank  int
	score float64
	err   error
}

// Run executes the query live. The backend must be safe for concurrent
// use (websim clients and DatasetBackend are). Cancelling the context
// aborts the run, including every in-flight backend request.
func (l *Live) Run(ctx context.Context, b access.Backend, f score.Func, k int) (*LiveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if l.B < 1 {
		return nil, fmt.Errorf("parallel: live concurrency bound must be >= 1, got %d", l.B)
	}
	if l.Sel == nil {
		return nil, fmt.Errorf("parallel: live executor requires a selector")
	}
	if err := l.Scn.Validate(b.M()); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("parallel: retrieval size must be >= 1, got %d", k)
	}
	start := time.Now()
	n, m := b.N(), b.M()
	tab, err := state.NewTable(n, m, f)
	if err != nil {
		return nil, err
	}
	st := &liveState{
		scn:    l.Scn,
		nwg:    !l.DisableNWG,
		tab:    tab,
		cursor: make([]int, m),
		probed: make(map[probe]bool),
		ns:     make([]int, m),
		nr:     make([]int, m),
	}
	q := state.NewQueue(tab, st.nwg)
	taskBusy := make(map[int]bool, l.B)
	predInFlight := make([]int, m)
	applyRank := make([]int, m)
	sortedBuf := make([]map[int]completion, m)
	for i := range sortedBuf {
		sortedBuf[i] = make(map[int]completion)
	}

	// Buffered so that in-flight goroutines can always deliver and exit
	// even if Run has already returned (e.g. on error).
	results := make(chan completion, l.B)
	inflight := 0
	// Requests still out when the run returns — the top-k is proven, a
	// completion failed, the context ended — are never reported finished
	// one by one; settle them once so the inflight gauge returns to zero.
	// Registered before the lock so it runs after the unlock.
	defer func() {
		if l.Obs != nil && inflight > 0 {
			l.Obs.Observe(obs.Event{Kind: obs.InflightChange, Value: -float64(inflight)})
		}
	}()
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()

	launch := func(c completion) {
		go func() {
			switch c.kind {
			case access.SortedAccess:
				//topklint:allow billedaccess the live executor keeps its own ledger; every completion is billed on delivery
				obj, sc, err := b.Sorted(ctx, c.pred, c.rank)
				c.obj, c.score, c.err = obj, sc, err
			case access.RandomAccess:
				//topklint:allow billedaccess the live executor keeps its own ledger; every completion is billed on delivery
				sc, err := b.Random(ctx, c.pred, c.obj)
				c.score, c.err = sc, err
			}
			results <- c
		}()
	}

	// dispatchOne mirrors the simulated executor's policy; it must be
	// called with mu held.
	dispatchOne := func() bool {
		for _, cand := range q.TopN(k) {
			if taskBusy[cand.ID] {
				continue
			}
			if cand.ID != state.UnseenID && tab.Complete(cand.ID) {
				continue
			}
			choices := algo.NecessaryChoices(tab, st, cand.ID)
			if l.PerPredLimit > 0 {
				filtered := choices[:0]
				for _, ch := range choices {
					if predInFlight[ch.Pred] < l.PerPredLimit {
						filtered = append(filtered, ch)
					}
				}
				choices = filtered
			}
			if len(choices) == 0 {
				continue
			}
			ch := l.Sel.Choose(tab, st, cand.ID, choices)
			c := completion{kind: ch.Kind, pred: ch.Pred, task: cand.ID}
			switch ch.Kind {
			case access.SortedAccess:
				c.rank = st.cursor[ch.Pred]
				st.cursor[ch.Pred]++
				st.ns[ch.Pred]++
				st.cost += st.scn.Preds[ch.Pred].Sorted
				if l.Obs != nil {
					l.Obs.Observe(obs.Event{Kind: obs.AccessDone, Access: obs.Sorted, Pred: ch.Pred, Value: st.scn.Preds[ch.Pred].Sorted.Units()})
				}
			case access.RandomAccess:
				c.obj = cand.ID
				st.probed[probe{ch.Pred, cand.ID}] = true
				st.nr[ch.Pred]++
				st.cost += st.scn.Preds[ch.Pred].Random
				if l.Obs != nil {
					l.Obs.Observe(obs.Event{Kind: obs.AccessDone, Access: obs.Random, Pred: ch.Pred, Value: st.scn.Preds[ch.Pred].Random.Units()})
				}
			}
			taskBusy[cand.ID] = true
			predInFlight[ch.Pred]++
			launch(c)
			inflight++
			if l.Obs != nil {
				l.Obs.Observe(obs.Event{Kind: obs.InflightChange, Value: +1})
			}
			return true
		}
		return false
	}

	applySorted := func(c completion) {
		sortedBuf[c.pred][c.rank] = c
		for {
			g, ok := sortedBuf[c.pred][applyRank[c.pred]]
			if !ok {
				break
			}
			delete(sortedBuf[c.pred], applyRank[c.pred])
			applyRank[c.pred]++
			tab.ObserveSorted(g.pred, g.obj, g.score)
			q.Add(g.obj) // a no-op if g.obj is already a candidate or was emitted
		}
	}

	var items []algo.Item
	for len(items) < k {
		for len(items) < k {
			top, ok := q.Peek()
			if !ok || top.ID == state.UnseenID || !tab.Complete(top.ID) {
				break
			}
			q.Pop()
			q.Retire(top.ID)
			exact, _ := tab.Exact(top.ID)
			items = append(items, algo.Item{Obj: top.ID, Score: exact, Exact: true})
		}
		if len(items) >= k {
			break
		}
		if _, ok := q.Peek(); !ok {
			break
		}
		for inflight < l.B && dispatchOne() {
		}
		if inflight == 0 {
			return nil, fmt.Errorf("parallel: live run stuck with %d/%d answers", len(items), k)
		}
		stalled := l.Obs != nil && inflight < l.B
		// Wait for one completion with the lock released so in-flight
		// requests can land (observer emissions also happen in this
		// window — never under the coordinator lock). Cancellation wins
		// the race: the in-flight goroutines deliver into the buffered
		// channel and exit on their own once their requests fail or
		// finish.
		mu.Unlock()
		if stalled {
			l.Obs.Observe(obs.Event{Kind: obs.DispatchStall})
		}
		var c completion
		select {
		case c = <-results:
		case <-ctx.Done():
			mu.Lock()
			return nil, fmt.Errorf("parallel: live run cancelled: %w", ctx.Err())
		}
		if l.Obs != nil {
			l.Obs.Observe(obs.Event{Kind: obs.InflightChange, Value: -1})
			if c.err != nil {
				l.Obs.Observe(obs.Event{Kind: obs.AccessDenied, Access: liveObsKind(c.kind), Pred: c.pred, Code: uint8(liveDenyReason(ctx, c.err))})
			}
		}
		mu.Lock()
		inflight--
		delete(taskBusy, c.task)
		predInFlight[c.pred]--
		if c.err != nil {
			return nil, fmt.Errorf("parallel: live %v access on p%d failed: %w", c.kind, c.pred+1, c.err)
		}
		if c.obj < 0 || c.obj >= n {
			return nil, fmt.Errorf("parallel: live %v access on p%d returned object %d outside universe [0,%d): %w",
				c.kind, c.pred+1, c.obj, n, access.ErrContractViolation)
		}
		switch c.kind {
		case access.SortedAccess:
			applySorted(c)
		case access.RandomAccess:
			tab.ObserveRandom(c.pred, c.obj, c.score)
		}
	}

	ledger := access.Ledger{
		SortedCounts: append([]int(nil), st.ns...),
		RandomCounts: append([]int(nil), st.nr...),
		TotalCost:    st.cost,
	}
	return &LiveResult{Items: items, Ledger: ledger, Wall: time.Since(start)}, nil
}
