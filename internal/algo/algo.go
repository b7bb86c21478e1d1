// Package algo implements the paper's Framework NC — the general yet
// specific space of top-k middleware algorithms built on necessary choices
// (Sections 5–6) — together with its SR/G instantiation (Section 7.1) and
// the existing algorithms the framework unifies (Section 8): FA, TA, CA,
// NRA, MPro, Upper, Quick-Combine, and Stream-Combine.
//
// Every algorithm consumes a Problem: a scoring function, a retrieval size
// k, and an access.Session through which all score information must be
// gathered (and paid for). Algorithms differ only in how they schedule
// accesses; the session enforces legality and meters cost uniformly, so
// ledgers are directly comparable across algorithms — the paper's basis
// for cost-based optimization.
package algo

import (
	"fmt"
	"sort"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/score"
)

// Problem is one top-k query execution context. A Problem (and its
// session) is single-use: run exactly one algorithm on it — a session
// carries consumed cursors and probe history, so a second run would see
// corrupted state. Algorithms enforce this via begin().
type Problem struct {
	F       score.Func
	K       int
	Session *access.Session

	started bool
}

// Begin marks the problem consumed. Every algorithm implementation
// (including external executors) calls it exactly once before touching
// the session; a second call fails.
func (p *Problem) Begin() error {
	if p.started {
		return fmt.Errorf("algo: problem already executed; sessions are single-use — build a new Problem per run")
	}
	p.started = true
	return nil
}

// NewProblem validates and bundles a query with its session.
func NewProblem(f score.Func, k int, sess *access.Session) (*Problem, error) {
	p := &Problem{Session: sess}
	if err := p.Rearm(f, k); err != nil {
		return nil, err
	}
	return p, nil
}

// Rearm readies the problem for one more run of a new (f, k) query over
// its session, under NewProblem's validation; the caller must have Reset
// the session. It is how the optimizer's simulation runs recycle one
// Problem; a rejected query leaves the problem as it was.
func (p *Problem) Rearm(f score.Func, k int) error {
	if k <= 0 {
		return fmt.Errorf("algo: retrieval size k must be positive, got %d", k)
	}
	if err := score.Validate(f, p.Session.M()); err != nil {
		return err
	}
	p.F, p.K, p.started = f, k, false
	return nil
}

// Item is one returned answer. Exact reports whether Score is the true
// overall score (algorithms like NRA terminate knowing the top-k identity
// but only a score interval; Score is then the final lower bound).
type Item struct {
	Obj   int
	Score float64
	Exact bool
}

// Result is a completed top-k execution: the ranked answers and the
// session ledger at halt (the paper's cost, Eq. 1).
type Result struct {
	Items  []Item
	Ledger access.Ledger
	// Truncated is set when a cost budget ran out — or, under a fault-
	// tolerant session, when degradation left no way to prove the answer —
	// before the answer was proven: Items then holds the best current
	// candidates (guaranteed answers first, then candidates ordered by
	// maximal-possible score, carrying lower-bound scores with Exact=false).
	Truncated bool
	// Degraded lists machine-readable reasons the answer is best-effort
	// rather than exact ("circuit_open:sa:p1", "query_deadline", ...).
	// Empty for exact answers and plain budget truncation.
	Degraded []string
}

// Cost returns the total access cost of the run.
func (r *Result) Cost() access.Cost { return r.Ledger.TotalCost }

// Objects returns the answer ids in rank order.
func (r *Result) Objects() []int {
	out := make([]int, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.Obj
	}
	return out
}

// Algorithm is a middleware query plan generator: given a problem it
// schedules accesses until the top-k is determined.
type Algorithm interface {
	Name() string
	Run(p *Problem) (*Result, error)
}

// rankItems sorts items by the deterministic total order (score descending,
// higher OID first on ties) and truncates to k.
func rankItems(items []Item, k int) []Item {
	sort.Slice(items, func(a, b int) bool {
		return data.Less(items[b].Score, items[b].Obj, items[a].Score, items[a].Obj)
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}

// roundRobinPreds returns the predicate indices with sorted capability, in
// index order, for algorithms that cycle sorted accesses across lists.
func roundRobinPreds(sess *access.Session) []int {
	var preds []int
	for i := 0; i < sess.M(); i++ {
		if sess.Costs(i).SortedOK {
			preds = append(preds, i)
		}
	}
	return preds
}

// requireAll verifies an algorithm's capability assumptions, returning a
// descriptive error naming the algorithm when the scenario falls outside
// the cell of Figure 2 the algorithm was designed for.
func requireAll(name string, sess *access.Session, needSorted, needRandom bool) error {
	for i := 0; i < sess.M(); i++ {
		pc := sess.Costs(i)
		if needSorted && !pc.SortedOK {
			return fmt.Errorf("algo: %s requires sorted access on every predicate; p%d does not support it", name, i+1)
		}
		if needRandom && !pc.RandomOK {
			return fmt.Errorf("algo: %s requires random access on every predicate; p%d does not support it", name, i+1)
		}
	}
	return nil
}
