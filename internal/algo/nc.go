package algo

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/access"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/state"
)

// Choice is one candidate access among the necessary choices N_j of an
// unsatisfied scoring task (Definition 2). For RandomAccess the target
// object is the task's object; for SortedAccess the returned object is
// whatever the list yields next.
type Choice struct {
	Kind access.Kind
	Pred int
}

// AccessObserver receives every performed access with the updated table
// and the observed result — the checkpoint hook of the adaptive layer
// (internal/adapt). One implementation covers all three executors: NC
// fires it from the cursor loop, MPro's cursors are NC cursors, and
// TACursor fires it from its sorted/probe rounds. Implementations must be
// allocation-free: the hook sits on the access hot path.
type AccessObserver interface {
	// ObserveAccess fires after a performed access: ch is what was chosen,
	// obj the object observed (the stream's next object for sorted access,
	// the probe target for random access), score its observed value.
	ObserveAccess(t *state.Table, ch Choice, obj int, score float64)
}

// Selector decides which necessary choice to perform — the Select routine
// of Framework NC (Figure 6, line 6). Different Selectors generate the
// different concrete algorithms of the NC space; SRG is the paper's
// optimizer-driven instantiation.
type Selector interface {
	Name() string
	// Choose picks one of the (non-empty, legal) choices for the
	// unsatisfied task of object target. target is state.UnseenID for the
	// virtual unseen object, in which case all choices are sorted
	// accesses.
	Choose(t *state.Table, sess *access.Session, target int, choices []Choice) Choice
}

// NC is Framework NC (Figure 6): it maintains the current top-k objects by
// maximal-possible score, repeatedly finds an unsatisfied scoring task
// among them (Theorem 1 guarantees one exists until the query is
// answerable), constructs the task's necessary choices, and delegates the
// pick to the Selector.
//
// The implementation works incrementally on the single best candidate: if
// the queue's top is complete it is provably the next answer (its exact
// score dominates every other candidate's upper bound), so it is emitted;
// otherwise it is the highest-ranked incomplete member of K_P — exactly
// the task Figure 6's comment suggests choosing.
type NC struct {
	Sel Selector
	// Epsilon > 0 relaxes the query to theta-approximation with
	// theta = 1 + Epsilon (the classic approximate-top-k guarantee of the
	// TA family): every returned object u satisfies
	// (1+Epsilon)*F(u) >= F(v) for every object v ranked after it. The
	// framework then emits a candidate not only when it is complete but
	// also when its own bound interval is tight enough —
	// F-bar(u) <= (1+Epsilon)*F-floor(u) — trading exactness for fewer
	// accesses. Such items carry Exact=false and their final lower bound
	// as Score. Zero means exact semantics.
	Epsilon float64
	// Hooks for instrumentation (may be nil): OnAccess fires after each
	// performed access with the updated table.
	OnAccess func(t *state.Table, rec Choice)
	// Monitor is the adaptive layer's checkpoint hook: unlike OnAccess it
	// also receives the access's observed (object, score), which the
	// divergence monitor needs to track random-access score means. Fired
	// after OnAccess on every performed access; read live like Sel, so it
	// may be attached to a suspended cursor between pages.
	Monitor AccessObserver
	// Obs, when non-nil, receives one LoopIteration event per scheduling
	// iteration with the candidate queue's size — the K_P working set the
	// observability layer reports as a high-water mark. Access-level
	// events flow from the session's own observer.
	Obs obs.Observer
}

// Name identifies the framework with its selector.
func (nc *NC) Name() string { return "NC/" + nc.Sel.Name() }

// Scratch holds the reusable per-run working state of Framework NC: the
// score-state table, the candidate queue, and the necessary-choice buffer.
// A zero Scratch is ready to use; passing the same Scratch to successive
// RunScratch calls recycles every backing array, which removes the
// dominant per-query allocations. A Scratch is owned by one run at a time
// (not safe for concurrent use); answer Items are never pooled — they
// escape to the caller.
type Scratch struct {
	tab     *state.Table
	q       *state.Queue
	choices []Choice
	// cur is the suspended-execution view of this scratch: NC.Open hands
	// out &sc.cur, so opening a cursor on pooled scratch allocates nothing
	// and repooling the scratch reclaims the cursor with it.
	cur Cursor
}

// Prepare readies the scratch for a run of size n×m and hands out its table
// and queue, reallocating the table only on first use or a change of n: a
// change of m — a query over other columns — re-arms it in place.
func (sc *Scratch) Prepare(n, m int, f score.Func, nwg bool) (*state.Table, *state.Queue, error) {
	if sc.tab == nil || sc.tab.N() != n {
		t, err := state.NewTable(n, m, f)
		if err != nil {
			return nil, nil, err
		}
		sc.tab = t
	} else if err := sc.tab.Rearm(m, f); err != nil {
		return nil, nil, err
	}
	if sc.q == nil {
		sc.q = state.NewQueue(sc.tab, nwg)
	} else {
		sc.q.Reset(sc.tab, nwg)
	}
	return sc.tab, sc.q, nil
}

// Run executes the framework until the top-k is determined.
func (nc *NC) Run(p *Problem) (*Result, error) { return nc.RunScratch(p, nil) }

// RunScratch is Run with caller-provided reusable working state. A nil
// scratch allocates fresh state, making it equivalent to Run. It is
// implemented as a single full page of the resumable cursor, which makes
// the deepening contract hold by construction: Open(k).Next(d1)...Next(dn)
// performs the same accesses and emits the same answers as one
// RunScratch with K = d1+...+dn.
func (nc *NC) RunScratch(p *Problem, sc *Scratch) (*Result, error) {
	cur, err := nc.Open(p, sc)
	if err != nil {
		return nil, err
	}
	return cur.Next(p.K)
}

// replanReason labels why the framework re-planned around a failure.
func replanReason(err error) string {
	if errors.Is(err, access.ErrCircuitOpen) {
		return "circuit_open"
	}
	return "source_failure"
}

// deadlineReason labels a query-level context failure.
func deadlineReason(err error) string {
	if errors.Is(err, context.Canceled) {
		return "query_cancelled"
	}
	return "query_deadline"
}

// NecessaryChoices constructs N_j for the unsatisfied task of the given
// object (Definition 2): every supported access that can return exact or
// bounding scores about the object's undetermined predicates. For the
// virtual unseen object only sorted accesses apply (Figure 10).
func NecessaryChoices(tab *state.Table, sess *access.Session, id int) []Choice {
	return AppendNecessaryChoices(nil, tab, sess, id)
}

// AppendNecessaryChoices is NecessaryChoices writing into a caller-owned
// buffer: it appends the task's choices to dst and returns it. Hot loops
// pass a recycled slice to keep choice construction allocation-free.
//
//topklint:hotpath
func AppendNecessaryChoices(dst []Choice, tab *state.Table, sess *access.Session, id int) []Choice {
	out := dst
	if id == state.UnseenID {
		for i := 0; i < sess.M(); i++ {
			if sess.Costs(i).SortedOK && !sess.SortedExhausted(i) {
				out = append(out, Choice{Kind: access.SortedAccess, Pred: i})
			}
		}
		return out
	}
	for i := 0; i < sess.M(); i++ {
		if tab.Known(id, i) {
			continue
		}
		pc := sess.Costs(i)
		if pc.SortedOK && !sess.SortedExhausted(i) {
			out = append(out, Choice{Kind: access.SortedAccess, Pred: i})
		}
		if pc.RandomOK && !sess.Probed(i, id) && (!sess.NoWildGuesses() || sess.Seen(id)) {
			out = append(out, Choice{Kind: access.RandomAccess, Pred: i})
		}
	}
	return out
}

// performChoice executes the chosen access against the session and feeds
// the observation into the table. For a sorted access it returns the
// object the list yielded (the caller decides whether it (re-)enters the
// candidate queue); for a random access it returns the target.
//
//topklint:hotpath
func performChoice(tab *state.Table, sess *access.Session, target int, ch Choice) (int, float64, error) {
	switch ch.Kind {
	case access.SortedAccess:
		obj, s, err := sess.SortedNext(ch.Pred)
		if err != nil {
			return 0, 0, err
		}
		tab.ObserveSorted(ch.Pred, obj, s)
		return obj, s, nil
	case access.RandomAccess:
		s, err := sess.Random(ch.Pred, target)
		if err != nil {
			return 0, 0, err
		}
		tab.ObserveRandom(ch.Pred, target, s)
		return target, s, nil
	default:
		return 0, 0, fmt.Errorf("algo: unknown access kind %v", ch.Kind)
	}
}
