package algo

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/access"
	"repro/internal/obs"
	"repro/internal/state"
)

// ErrCursorClosed is returned by Next/NextUntil on a closed cursor.
var ErrCursorClosed = errors.New("algo: cursor closed")

// Pager is a suspended top-k execution that can be deepened on demand:
// Next(delta) resumes exactly where the previous page stopped and proves
// the next delta answers without repeating any access already paid for.
// The NC Cursor and the TACursor implement it; the facade exposes either
// uniformly.
type Pager interface {
	// Page resumes the run until delta more answers are proven (fewer if
	// the database, a budget, or degradation runs out first) and writes the
	// page into res: only the new page's Items, and the cumulative session
	// Ledger, so successive pages show monotone cost. Items and Ledger are
	// written into res's own slices, whose capacity a recycled res lends to
	// the next page: a caller that keeps a page copies it out first. On error
	// res holds no page.
	Page(res *Result, delta int) error
	// Emitted reports how many answers all pages together have produced.
	Emitted() int
	// Exhausted reports that every object has been emitted: further pages
	// are empty and perform no accesses.
	Exhausted() bool
	// Ledger snapshots the cumulative access ledger.
	Ledger() access.Ledger
	// Close ends the run; subsequent Next calls fail with ErrCursorClosed.
	// Closing is idempotent.
	Close()
}

// Cursor is the suspended form of Framework NC: the per-query score state
// (table, candidate queue) plus the loop's fault-absorption
// counters, kept alive between pages. A Cursor lives inside its Scratch, so
// opening one on pooled scratch performs no additional allocation and
// closing it returns the whole working set to the pool at once.
//
// Resumption is byte-identical to recomputation: NC's access sequence does
// not depend on the retrieval size k — only the stop condition does — so
// Open(k) + Next(d1) + ... + Next(dn) performs exactly the access prefix a
// fresh k+Σd run would, and the concatenated pages equal its answer. This
// holds through budget truncation too: once truncated, pages keep draining
// the candidate queue in queue order, matching the fresh run's anytime
// fill.
type Cursor struct {
	// nc is read live on every iteration — not copied — so callers that
	// swap nc.Sel mid-run (the adaptive layer's Monitor checkpoint, the
	// facade's between-page re-planning) steer the very next access.
	nc   *NC
	sess *access.Session
	sc   *Scratch
	tab  *state.Table
	q    *state.Queue

	emittedN   int
	consecFail int
	failBudget int
	// iters, peakQ and lastQ are the loop's iterations since the last page
	// and the candidate queue's largest and last size (foldLoop).
	iters, peakQ, lastQ int
	// truncated is sticky: a budget exhaustion or unrecoverable
	// degradation permanently switches the cursor to draining queue
	// candidates (no further accesses), mirroring NC.Run's anytime fill.
	truncated bool
	degraded  []string
	exhausted bool
	closed    bool
	err       error
}

// Open suspends Framework NC over the problem before its first access.
// The problem is consumed, as with any algorithm; p.K only validates the
// query (paging is caller-controlled). A nil scratch allocates fresh
// working state; a pooled scratch makes Open allocation-free. The returned
// cursor lives inside the scratch: it is invalid once the scratch is
// reused or repooled.
func (nc *NC) Open(p *Problem, sc *Scratch) (*Cursor, error) {
	if nc.Sel == nil {
		return nil, fmt.Errorf("algo: cursor requires a selector")
	}
	if nc.Epsilon < 0 {
		return nil, fmt.Errorf("algo: cursor epsilon must be >= 0, got %g", nc.Epsilon)
	}
	if err := p.Begin(); err != nil {
		return nil, err
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sess := p.Session
	tab, q, err := sc.Prepare(sess.N(), sess.M(), p.F, sess.NoWildGuesses())
	if err != nil {
		return nil, err
	}
	c := &sc.cur
	*c = Cursor{
		nc:         nc,
		sess:       sess,
		sc:         sc,
		tab:        tab,
		q:          q,
		failBudget: sess.FailureBudget(),
	}
	return c, nil
}

// Emitted reports the total answers produced across all pages.
func (c *Cursor) Emitted() int { return c.emittedN }

// Exhausted reports whether every object has been emitted.
func (c *Cursor) Exhausted() bool { return c.exhausted }

// Ledger snapshots the cumulative access ledger.
func (c *Cursor) Ledger() access.Ledger { return c.sess.Ledger() }

// Close ends the run. Idempotent.
func (c *Cursor) Close() { c.closed = true }

// Next is Page into a fresh Result.
func (c *Cursor) Next(delta int) (*Result, error) {
	res := new(Result)
	if err := c.Page(res, delta); err != nil {
		return nil, err
	}
	return res, nil
}

// Page resumes the framework until delta more answers are proven. The page
// is shorter than delta only when the database is exhausted or the run
// (now or previously) truncated with an empty candidate queue. delta = 0
// returns an empty page without performing accesses. The items are sized
// by what can still be emitted, never by delta alone: a page request is
// caller input.
func (c *Cursor) Page(res *Result, delta int) error {
	if c.closed {
		return ErrCursorClosed
	}
	if c.err != nil {
		return c.err
	}
	if delta < 0 {
		return fmt.Errorf("algo: cursor page size must be >= 0, got %d", delta)
	}
	defer c.foldLoop()
	items := slices.Grow(res.Items[:0], min(delta, c.sess.N()-c.emittedN))
	for len(items) < delta {
		it, ok, err := c.nextItem()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		items = append(items, it)
	}
	c.page(res, items)
	return nil
}

// Skip is Next for callers that want the run's bill and not its answers:
// it resumes the framework until delta more answers are proven and
// reports how many were, performing exactly the accesses Next(delta)
// would while building no page. The optimizer's simulation runs are Skips
// read back through Session.TotalCost.
//
//topklint:hotpath
func (c *Cursor) Skip(delta int) (int, error) {
	if c.closed {
		return 0, ErrCursorClosed
	}
	if c.err != nil {
		return 0, c.err
	}
	n := 0
	for n < delta {
		_, ok, err := c.nextItem()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		n++
	}
	c.emittedN += n
	return n, nil
}

// nextItem proves the next answer or, once the run truncated, drains the
// next best-effort candidate; false means the database is exhausted or
// the truncated run's candidate queue is empty.
func (c *Cursor) nextItem() (Item, bool, error) {
	for {
		if c.truncated {
			it, ok := c.drainOne()
			return it, ok, nil
		}
		it, ok, err := c.advance(math.Inf(-1), false)
		if err != nil || ok || !c.truncated {
			return it, ok, err
		}
	}
}

// PageUntil is the score-range sibling of Page: it resumes the framework
// writing into res every answer provably scoring at least tau, best first,
// and suspends — without consuming the boundary candidate — as soon as no
// remaining object (seen or unseen) can reach tau. The cursor state stays
// live: a later Page or PageUntil with a lower tau continues deeper. Under
// approximation (epsilon > 0) inexact items are emitted only when their
// lower bound already proves tau. A truncated cursor returns an empty
// degraded page: drained candidates carry no score proof, so a score-range
// page cannot include them.
func (c *Cursor) PageUntil(res *Result, tau float64) error {
	if c.closed {
		return ErrCursorClosed
	}
	if c.err != nil {
		return c.err
	}
	defer c.foldLoop()
	items := res.Items[:0]
	for !c.truncated {
		it, ok, err := c.advance(tau, true)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		items = append(items, it)
	}
	c.page(res, items)
	return nil
}

// foldLoop reports the loop's progress since the last page as one
// LoopIteration and starts counting the next page's.
func (c *Cursor) foldLoop() {
	if c.iters > 0 && c.nc.Obs != nil {
		c.nc.Obs.Observe(obs.Event{Kind: obs.LoopIteration, N: c.iters, Value: float64(c.lastQ), Pred: c.peakQ})
	}
	c.iters, c.peakQ = 0, 0
}

// page writes the Result for the newly emitted items, already in res's
// item buffer, into res.
func (c *Cursor) page(res *Result, items []Item) {
	c.emittedN += len(items)
	res.Items = items
	c.sess.LedgerInto(&res.Ledger)
	res.Truncated, res.Degraded = c.truncated, nil
	if c.truncated {
		res.Degraded = c.degraded
	}
}

// drainOne pops the next best-effort candidate after truncation.
func (c *Cursor) drainOne() (Item, bool) {
	it, ok := DrainOne(c.tab, c.q)
	if !ok {
		c.exhausted = true
	}
	return it, ok
}

// DrainOne pops the queue's next best-effort candidate, the anytime fill of
// a run that stopped before proving its answer: exact if complete,
// otherwise the lower bound with Exact=false. False means the queue is
// empty.
func DrainOne(tab *state.Table, q *state.Queue) (Item, bool) {
	for {
		e, ok := q.Pop()
		if !ok {
			return Item{}, false
		}
		if e.ID == state.UnseenID {
			continue
		}
		if exact, done := tab.Exact(e.ID); done {
			return Item{Obj: e.ID, Score: exact, Exact: true}, true
		}
		return Item{Obj: e.ID, Score: tab.Lower(e.ID), Exact: false}, true
	}
}

// beginTruncation permanently switches the cursor to anytime draining.
func (c *Cursor) beginTruncation(degraded []string) {
	c.truncated = true
	c.degraded = degraded
}

// advance runs the NC scheduling loop until one more answer is proven.
// It returns (item, true, nil) on emission; (zero, false, nil) when no
// more answers can be proven — the queue is exhausted, the tau bound
// suspends the run, or the cursor just truncated (c.truncated set; the
// caller decides whether to drain); or a terminal error. The body is
// Framework NC's loop (Figure 6) exactly as NC.Run executes it, so pages
// concatenate into the access sequence of a single larger run.
func (c *Cursor) advance(tau float64, haveTau bool) (Item, bool, error) {
	tab, q, sess := c.tab, c.q, c.sess
	for {
		c.iters, c.lastQ = c.iters+1, q.Len()
		c.peakQ = max(c.peakQ, c.lastQ)
		top, ok := q.Peek()
		if !ok {
			c.exhausted = true
			return Item{}, false, nil
		}
		if haveTau && top.Upper < tau {
			// No candidate — seen or unseen — can still reach tau: the
			// queue head bounds every remaining score. Suspend without
			// consuming the head; deeper paging can resume from it.
			return Item{}, false, nil
		}
		if top.ID != state.UnseenID && tab.Complete(top.ID) {
			// Satisfied task at the head: top.Upper is its exact score and
			// dominates every remaining candidate's bound, so it is the
			// next answer (Theorem 1, condition 2, applied incrementally).
			q.Pop()
			q.Retire(top.ID)
			exact, _ := tab.Exact(top.ID)
			return Item{Obj: top.ID, Score: exact, Exact: true}, true, nil
		}
		if c.nc.Epsilon > 0 && top.ID != state.UnseenID {
			// Approximate emission: the candidate dominates every remaining
			// bound (it is the queue head), and its own interval is within
			// the theta = 1+epsilon slack. Under a tau bound the lower
			// bound must additionally prove tau.
			if lo := tab.Lower(top.ID); top.Upper <= (1+c.nc.Epsilon)*lo && (!haveTau || lo >= tau) {
				q.Pop()
				q.Retire(top.ID)
				return Item{Obj: top.ID, Score: lo, Exact: false}, true, nil
			}
		}
		// Unsatisfied task (Theorem 1, condition 1): gather its necessary
		// choices (Definition 2) and let the Selector pick.
		choices := AppendNecessaryChoices(c.sc.choices[:0], tab, sess, top.ID)
		c.sc.choices = choices
		if len(choices) == 0 {
			if sess.FaultTolerant() && len(sess.Degraded()) > 0 {
				// Degradation removed every legal choice for this task: the
				// scenario can no longer answer the query exactly. Degrade
				// to anytime draining — the outage is a scenario change,
				// not a bug.
				if c.nc.Obs != nil {
					c.nc.Obs.Observe(obs.Event{Kind: obs.DegradedReplan, Label: "no_legal_plan"})
				}
				c.beginTruncation(append(sess.Degraded(), "no_legal_plan"))
				return Item{}, false, nil
			}
			c.err = fmt.Errorf("algo: NC stuck: task for object %d has no legal choices (scenario %q cannot answer the query)", top.ID, sess.Scenario().Name)
			return Item{}, false, c.err
		}
		ch := c.nc.Sel.Choose(tab, sess, top.ID, choices)
		obj, sc, err := performChoice(tab, sess, top.ID, ch)
		switch {
		case err == nil:
			c.consecFail = 0
		case errors.Is(err, access.ErrBudgetExhausted):
			// Anytime behaviour: the budget cannot cover the framework's
			// chosen access.
			c.beginTruncation(sess.Degraded())
			return Item{}, false, nil
		case errors.Is(err, access.ErrCircuitOpen) || errors.Is(err, access.ErrAccessFailed):
			// Fault-tolerant absorption: nothing was billed, the failure
			// was recorded against the capability's breaker, and the
			// scenario may have degraded — re-derive the choices and
			// re-plan instead of failing the query.
			c.consecFail++
			if c.nc.Obs != nil {
				c.nc.Obs.Observe(obs.Event{Kind: obs.DegradedReplan, Label: replanReason(err)})
			}
			if c.consecFail > c.failBudget {
				c.beginTruncation(append(sess.Degraded(), "failure_budget_exhausted"))
				return Item{}, false, nil
			}
			continue
		case sess.FaultTolerant() && sess.Err() != nil:
			// The query's own deadline (or cancellation) fired mid-run:
			// degrade to the best current answer, never hang or lose the
			// work already paid for.
			c.beginTruncation(append(sess.Degraded(), deadlineReason(sess.Err())))
			return Item{}, false, nil
		default:
			c.err = err
			return Item{}, false, err
		}
		if ch.Kind == access.SortedAccess {
			q.Add(obj) // a no-op if obj is already a candidate or was emitted
		}
		if c.nc.Monitor != nil {
			c.nc.Monitor.ObserveAccess(tab, ch, obj, sc)
		}
	}
}
