package access

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/data"
	"repro/internal/kit"
	"repro/internal/obs"
)

// Backend supplies raw access results. The in-process implementation wraps
// a data.Dataset; internal/websim provides an HTTP-backed implementation.
// Backends are oblivious to costs and legality — that is the Session's job.
// Accesses take a context first so callers can cancel or bound in-flight
// source requests; in-memory backends only need to honor ctx.Err().
//
// Sorted access is read in pages (Pager); every layer of the stack pages,
// and Sorted is derived from Page (SortedAt). A backend that only has
// Sorted is paged one entry per call (Pages).
type Backend interface {
	// N and M return the object and predicate counts.
	N() int
	M() int
	// Sorted returns the object at the given zero-based rank of predicate
	// pred's descending list and its score. rank is always in [0, N).
	Sorted(ctx context.Context, pred, rank int) (obj int, score float64, err error)
	// Random returns p_pred[obj].
	Random(ctx context.Context, pred, obj int) (float64, error)
}

// Entry is one element of a predicate's descending sorted list: what one
// sorted access returns. It is the one entry type of every layer that
// keeps or ships sorted results (the sharing layer's prefix, the cluster
// merge and its shard pages, the websim wire format).
type Entry struct {
	Obj   int     `json:"obj"`
	Score float64 `json:"score"`
}

// DatasetBackend adapts a data.Dataset to the Backend interface.
type DatasetBackend struct{ DS *data.Dataset }

// N returns the object count.
func (b DatasetBackend) N() int { return b.DS.N() }

// M returns the predicate count.
func (b DatasetBackend) M() int { return b.DS.M() }

// Page copies the entries of ranks from, from+1, ... of pred's descending
// list into buf: all of buf that the list can fill.
//
//topklint:hotpath
func (b DatasetBackend) Page(ctx context.Context, pred, from int, buf []Entry) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if pred < 0 || pred >= b.DS.M() || from < 0 || from >= b.DS.N() {
		return 0, fmt.Errorf("access: page of p%d at rank %d outside %d x %d", pred+1, from, b.DS.N(), b.DS.M())
	}
	n := min(len(buf), b.DS.N()-from)
	for i := range buf[:n] {
		buf[i].Obj, buf[i].Score = b.DS.SortedAt(pred, from+i)
	}
	return n, nil
}

// Sorted returns the rank-th entry of pred's descending list.
func (b DatasetBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return Fields(SortedAt(ctx, b, pred, rank))
}

// Random returns the exact score.
func (b DatasetBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return b.DS.Score(obj, pred), nil
}

// Sentinel errors for illegal or unavailable accesses.
var (
	// ErrExhausted is returned by SortedNext once a list has been fully
	// consumed.
	ErrExhausted = errors.New("access: sorted list exhausted")
	// ErrSortedUnsupported is returned when the scenario forbids sa_i.
	ErrSortedUnsupported = errors.New("access: sorted access unsupported on this predicate")
	// ErrRandomUnsupported is returned when the scenario forbids ra_i.
	ErrRandomUnsupported = errors.New("access: random access unsupported on this predicate")
	// ErrWildGuess is returned when a random access targets an object not
	// yet seen by any sorted access while no-wild-guesses is enforced.
	ErrWildGuess = errors.New("access: random access to unseen object (no wild guesses)")
	// ErrRepeatedProbe is returned on a second random access to the same
	// (predicate, object) pair; such accesses return no new information
	// and indicate an algorithm bug.
	ErrRepeatedProbe = errors.New("access: repeated random access")
	// ErrBudgetExhausted is returned when performing an access would push
	// the session's accrued cost past its budget (WithBudget). The access
	// is not performed and nothing is charged; anytime algorithms catch
	// this sentinel and return their best current answer.
	ErrBudgetExhausted = errors.New("access: cost budget exhausted")
	// ErrCircuitOpen is returned when an access is refused because the
	// capability's circuit breaker is open (WithResilience): the source
	// failed repeatedly and is being rested. Nothing is charged. Fault-
	// tolerant algorithms treat this as a scenario change and re-plan.
	ErrCircuitOpen = errors.New("access: circuit open")
	// ErrAccessFailed wraps a source-side failure (transport error, source
	// error, or per-access timeout) under WithResilience. Nothing was
	// charged; the failure was recorded against the capability's breaker,
	// and the access is safe to re-derive — the session's cursors did not
	// move. Fault-tolerant algorithms catch this sentinel and continue.
	ErrAccessFailed = errors.New("access: source access failed")
)

// Record is one entry of an access trace.
type Record struct {
	Kind  Kind
	Pred  int
	Obj   int // the object returned (sa) or targeted (ra)
	Score float64
	Cost  Cost
}

// String formats the record like the paper's notation, e.g. "sa1->u3(0.70)"
// or "ra2(u3)=0.70" (predicates printed 1-based as in the paper).
func (r Record) String() string {
	if r.Kind == SortedAccess {
		return fmt.Sprintf("sa%d->u%d(%.2f)", r.Pred+1, r.Obj, r.Score)
	}
	return fmt.Sprintf("ra%d(u%d)=%.2f", r.Pred+1, r.Obj, r.Score)
}

// Ledger is a snapshot of a session's accrued accesses and cost, the
// quantities of the paper's Eq. 1.
type Ledger struct {
	SortedCounts []int // ns_i
	RandomCounts []int // nr_i
	TotalCost    Cost  // sum ns_i*cs_i + nr_i*cr_i (at the costs in force when each access ran)
}

// TotalAccesses returns the total number of accesses of both kinds.
func (l Ledger) TotalAccesses() int {
	t := 0
	for _, c := range l.SortedCounts {
		t += c
	}
	for _, c := range l.RandomCounts {
		t += c
	}
	return t
}

// Option configures a session run. It is a plain value, not a closure: the
// engine fills one in per run without allocating, and NewSession, Reset and
// ResetScenario fold the Options they are given in order — a field left at
// its zero value changes nothing, Shifts append. The With* helpers build
// one-field Options for call sites that compose a few.
type Option struct {
	// Trace records the access trace (off by default; traces are useful for
	// tests and debugging but cost memory).
	Trace bool
	// AllowWildGuesses lifts the no-wild-guesses rule, allowing random
	// access to objects never seen by sorted access. The paper's framework
	// "can generally work with or without" the rule (Section 8); middleware
	// over Web sources normally enforce it.
	AllowWildGuesses bool
	// Shifts are dynamic mid-run cost changes (adaptivity experiments), on
	// backend predicates.
	Shifts []CostShift
	// Budget, when Budgeted, caps the session's total access cost: an
	// access that would exceed it fails with ErrBudgetExhausted (and is not
	// charged). Budgets turn exact algorithms into anytime ones — Framework
	// NC returns its best current answer when the budget runs dry.
	Budget   Cost
	Budgeted bool
	// Context bounds every backend access the session performs: cancelling
	// it aborts in-flight source requests and fails subsequent accesses.
	// Nil means context.Background().
	Context context.Context
	// Observer receives the session's access events (performed and refused
	// accesses with their costs). Nil is a no-op at zero overhead;
	// obs.QueryTrace and obs.Metrics are the standard sinks.
	Observer obs.Observer
	// Resilience attaches fault tolerance: per-capability circuit breakers
	// and a per-access deadline. Source failures are recorded against the
	// breakers; when a circuit opens, the session flips that capability off
	// in CurrentScenario() — degradation becomes a scenario change the
	// engine re-plans around instead of an error it aborts on.
	Resilience *Resilience
	// Cols selects the backend predicates the run reads, in the query's
	// order: the session's predicate i is backend predicate Cols[i]. Nil
	// reads every backend predicate in order. The session copies it.
	Cols []int
}

// WithTrace is Option{Trace: true}.
func WithTrace() Option { return Option{Trace: true} }

// WithoutNoWildGuesses is Option{AllowWildGuesses: true}.
func WithoutNoWildGuesses() Option { return Option{AllowWildGuesses: true} }

// WithShifts is Option{Shifts: shifts}.
func WithShifts(shifts ...CostShift) Option { return Option{Shifts: shifts} }

// WithBudget is Option{Budget: budget, Budgeted: true}.
func WithBudget(budget Cost) Option { return Option{Budget: budget, Budgeted: true} }

// WithContext is Option{Context: ctx}.
func WithContext(ctx context.Context) Option { return Option{Context: ctx} }

// WithObserver is Option{Observer: o}.
func WithObserver(o obs.Observer) Option { return Option{Observer: o} }

// WithResilience is Option{Resilience: r}.
func WithResilience(r *Resilience) Option { return Option{Resilience: r} }

// apply folds one Option into the session's run configuration.
func (s *Session) apply(o Option) {
	if o.Trace {
		s.traceOn = true
	}
	if o.AllowWildGuesses {
		s.nwg = false
	}
	s.shifts = append(s.shifts, o.Shifts...)
	if o.Budgeted {
		s.budget, s.hasBudget = o.Budget, true
	}
	if o.Context != nil {
		s.ctx = o.Context
	}
	if o.Observer != nil {
		s.obs = o.Observer
	}
	if o.Resilience != nil {
		s.res = o.Resilience
	}
	if o.Cols != nil {
		s.cols = append(s.cols[:0], o.Cols...)
	}
}

// Session mediates all accesses of one query execution: it enforces
// legality, walks sorted lists in order, accrues costs, and records
// traces. A Session is single-use and not safe for concurrent use: the
// bounded-concurrency executor admits and settles on one goroutine and only
// performs on others (see Pending). The engine facade pools sessions through
// sync.Pool (see Reset).
//
// What a session is configured with is in the backend's predicate
// numbering: the scenario, cost shifts and breakers. What it reports is in
// the run's (Option.Cols): predicate arguments, ledger, trace, events and
// CurrentScenario. The circuit_open degradation reasons name the breaker,
// so they too are in the backend's numbering.
//
//topklint:pooled
type Session struct {
	backend Backend  //topklint:allow resetcomplete identity: a recycled session serves the same backend
	pages   Pager    //topklint:allow resetcomplete identity: the backend's paged read, fixed with it
	scn     Scenario //topklint:allow resetcomplete identity: a recycled session keeps its scenario (ResetScenario swaps it); Reset re-derives current from it
	cols    []int    // run predicate i is backend predicate cols[i]
	nwg     bool
	ctx     context.Context

	cursor []int // next rank per predicate
	// Each predicate's list is read through a window: the page its last
	// refill read, served entry by entry while it lines up with the cursor.
	// A refill reads into a spare buffer and swaps it in when it settles, so
	// a buffer is written only by the one refill holding it. Buffers are
	// made by the first refills that need them and kept with the session.
	wins  []Window  //topklint:allow resetcomplete emptied by dropWindows, which Reset calls first
	spare [][]Entry //topklint:allow resetcomplete free page buffers, kept for the next run's refills
	// Per-object history lives behind an object index, in slot arrays that
	// grow with the objects the run has seen or probed: 4 bytes per object
	// of the universe, everything else per object touched. Reset leaves the
	// slot arrays alone; touch zeroes a slot when it hands it out.
	idx     kit.ObjIndex
	probed  []bool //topklint:allow resetcomplete slot fact (slot*m+pred): unreachable once Reset empties the index, zeroed by touch on reuse
	seen    []bool //topklint:allow resetcomplete slot fact: unreachable once Reset empties the index, zeroed by touch on reuse
	nseen   int
	ns, nr  []int
	cost    Cost
	nAccess int // accesses admitted and not failed: the clock cost shifts fire on
	// reserved is the cost of accesses admitted and not yet settled; admit
	// counts it against the budget.
	reserved Cost

	shifts    []CostShift
	current   []PredCost // costs currently in force
	budget    Cost
	hasBudget bool

	traceOn bool
	trace   []Record

	obs obs.Observer // nil unless WithObserver

	// Fault tolerance (nil res = none; see WithResilience).
	res *Resilience
	// actx bounds accesses by res.AccessTimeout: built over ctx by the
	// first access that needs it, re-armed by every one after, re-pointed
	// at the new ctx by Reset and Bind, and dropped only once it is spent
	// (see Deadline).
	actx     *Deadline  //topklint:allow resetcomplete owned for the session's life: Reset re-points it at the new context (bindDeadline) instead of dropping it
	resGen   uint64     // last breaker-set generation folded into current
	orig     []PredCost // scenario capabilities before breaker degradation
	degraded []string   // machine-readable degradation reasons, first-seen order
}

// observeDenied reports a refused or failed access to the observer.
func (s *Session) observeDenied(kind Kind, pred int, reason obs.DenyReason) {
	if s.obs != nil {
		s.obs.Observe(obs.Event{Kind: obs.AccessDenied, Access: obsKind(kind), Pred: pred, Code: uint8(reason)})
	}
}

// obsKind maps the access kind onto the observability layer's mirror type.
func obsKind(k Kind) obs.AccessKind {
	if k == SortedAccess {
		return obs.Sorted
	}
	return obs.Random
}

// denyReason classifies a backend failure: cancellation of the session's
// own context is an operational signal distinct from a source-side error.
// A deadline that fired while the session context is still live is the
// per-access timeout — a hung source, i.e. a backend failure.
func (s *Session) denyReason(err error) obs.DenyReason {
	if s.ctx.Err() != nil {
		return obs.DenyCancelled
	}
	if s.res == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return obs.DenyCancelled
	}
	if errors.Is(err, ErrContractViolation) {
		return obs.DenyContract
	}
	return obs.DenyBackend
}

// observeFailure reports a failed access: a contract-guard rejection emits
// its structured violation event before the generic denial.
func (s *Session) observeFailure(kind Kind, pred int, err error) {
	if s.obs != nil {
		var cve *ContractViolationError
		if errors.As(err, &cve) {
			s.obs.Observe(obs.Event{Kind: obs.ContractViolation, Access: obsKind(kind), Pred: pred, Label: cve.Reason})
		}
	}
	s.observeDenied(kind, pred, s.denyReason(err))
}

// NewSession creates a session over the backend with the given scenario.
func NewSession(b Backend, scn Scenario, opts ...Option) (*Session, error) {
	if err := scn.Validate(b.M()); err != nil {
		return nil, err
	}
	m, n := b.M(), b.N()
	counts := make([]int, 3*m) // cursor, ns and nr in one block
	s := &Session{
		backend: b,
		pages:   Pages(b),
		scn:     scn,
		cols:    make([]int, m),
		cursor:  counts[:m:m],
		wins:    make([]Window, m),
		idx:     kit.NewObjIndex(n),
		ns:      counts[m : 2*m : 2*m],
		nr:      counts[2*m:],
		current: make([]PredCost, m),
	}
	s.grow()
	if err := s.Reset(opts...); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset restores a used session to the state NewSession would have built —
// same backend, same scenario, fresh cursors, probe history, ledger, and
// per-run options — reusing every backing array. It is the recycling hook
// that lets the facade and the HTTP service pool sessions through
// sync.Pool instead of reallocating the probed/seen/ledger bookkeeping on
// every query. Options from the previous run are discarded entirely; pass
// the full set again. A column selection (Option.Cols) that is empty, out
// of range or repeats a predicate, or whose slice of the scenario cannot
// answer a query, is an error.
func (s *Session) Reset(opts ...Option) error {
	s.dropWindows()
	s.nwg = true
	s.ctx = context.Background()
	mb := s.backend.M()
	s.cols = s.cols[:mb]
	for i := range s.cols {
		s.cols[i] = i
	}
	s.shifts = s.shifts[:0]
	s.budget, s.hasBudget = 0, false
	s.traceOn = false
	s.trace = nil
	s.obs = nil
	s.res = nil
	s.resGen = 0
	s.orig = s.orig[:0]
	s.degraded = s.degraded[:0]
	for _, o := range opts {
		s.apply(o)
	}
	s.bindDeadline()
	if err := checkCols(s.cols, mb); err != nil {
		return err
	}
	// The run's arrays are prefixes of the backend-sized ones: a valid
	// selection is never wider than the backend.
	m := len(s.cols)
	s.cursor, s.ns, s.nr, s.current = s.cursor[:m], s.ns[:m], s.nr[:m], s.current[:m]
	clear(s.cursor)
	s.idx.Reset()
	s.nseen = 0
	clear(s.ns)
	clear(s.nr)
	s.cost, s.reserved = 0, 0
	s.nAccess = 0
	for i, c := range s.cols {
		s.current[i] = s.scn.Preds[c]
	}
	if err := (Scenario{Name: s.scn.Name, Preds: s.current}).Validate(m); err != nil {
		return err
	}
	if s.res != nil {
		if b := s.res.Breakers; b != nil && b.M() < mb {
			return fmt.Errorf("access: breaker set covers %d predicates, backend has %d", b.M(), mb)
		}
		if cap(s.orig) < m {
			s.orig = make([]PredCost, m)
		}
		s.orig = s.orig[:m]
		copy(s.orig, s.current)
		s.syncBreakers()
	}
	return nil
}

// grow resizes the slot arrays to the index's next capacity (cold path: a
// pooled session stops growing once it has served its widest query). A
// slot's probe facts are laid out at the run's width, within room for the
// backend's.
func (s *Session) grow() {
	slots := s.idx.Grow()
	m := s.backend.M()
	probed := make([]bool, slots*m)
	copy(probed, s.probed)
	seen := make([]bool, slots)
	copy(seen, s.seen)
	s.probed, s.seen = probed, seen
}

// touch returns u's slot, assigning and zeroing one on first touch. u must
// be in [0, N): ids from a backend are range-checked before they get here.
//
//topklint:hotpath
func (s *Session) touch(u int) int {
	if slot, ok := s.idx.Slot(u); ok {
		return slot
	}
	if s.idx.Len() == s.idx.Cap() {
		//topklint:allow hotpathalloc lazy slot growth: a pooled session stops growing at its widest query, every later touch reuses slots
		s.grow()
	}
	slot := s.idx.Add(u)
	for i, m := 0, len(s.cursor); i < m; i++ { // m is small: cheaper than a memclr call
		s.probed[slot*m+i] = false
	}
	s.seen[slot] = false
	return slot
}

// ResetScenario is Reset under a different cost scenario over the same
// backend. The optimizer's planning arena keeps one session over its
// sample and re-prices it under whatever scenario the query being planned
// runs against; a scenario the backend's predicate count rejects leaves
// the session as it was.
func (s *Session) ResetScenario(scn Scenario, opts ...Option) error {
	if err := scn.Validate(s.backend.M()); err != nil {
		return err
	}
	s.scn = scn
	return s.Reset(opts...)
}

// N returns the object count.
func (s *Session) N() int { return s.backend.N() }

// M returns the run's predicate count: the columns it selects.
func (s *Session) M() int { return len(s.cols) }

// Scenario returns the session's configured cost scenario, over the
// backend's predicates.
func (s *Session) Scenario() Scenario { return s.scn }

// CurrentScenario snapshots the unit costs currently in force (they can
// differ from the initial scenario under dynamic cost shifts) and the
// capabilities currently available (circuit-breaker degradation flips a
// capability off until its breaker closes again). Adaptive optimizers
// re-plan against this snapshot — which is exactly how a source outage
// becomes a scenario change rather than a query failure.
func (s *Session) CurrentScenario() Scenario {
	s.syncBreakers()
	preds := make([]PredCost, len(s.current))
	copy(preds, s.current)
	return Scenario{Name: s.scn.Name + "/current", Preds: preds}
}

// RefreshPreds is CurrentScenario's change detector: it reports whether
// the capabilities and unit costs currently in force differ from snap (an
// earlier refresh) and, when they do, overwrites snap with them. Unlike
// CurrentScenario it copies nothing while the scenario stands still.
func (s *Session) RefreshPreds(snap []PredCost) ([]PredCost, bool) {
	s.syncBreakers()
	if slices.Equal(s.current, snap) {
		return snap, false
	}
	return append(snap[:0], s.current...), true
}

// Costs returns the unit costs currently in force for predicate i. With
// dynamic shifts these can differ from the scenario's initial values;
// adaptive algorithms read them at runtime.
func (s *Session) Costs(i int) PredCost { return s.current[i] }

// NoWildGuesses reports whether the NWG rule is enforced.
func (s *Session) NoWildGuesses() bool { return s.nwg }

// Seen reports whether object u has been returned by any sorted access.
func (s *Session) Seen(u int) bool {
	slot, ok := s.idx.Slot(u)
	return ok && s.seen[slot]
}

// SeenCount returns how many distinct objects have been seen.
func (s *Session) SeenCount() int { return s.nseen }

// SortedDepth returns how many sorted accesses have been performed on
// predicate i (the current depth into its list).
func (s *Session) SortedDepth(i int) int { return s.cursor[i] }

// SortedExhausted reports whether predicate i's list is fully consumed.
func (s *Session) SortedExhausted(i int) bool { return s.cursor[i] >= s.backend.N() }

// Probed reports whether ra_i(u) has already been performed.
func (s *Session) Probed(i, u int) bool {
	slot, ok := s.idx.Slot(u)
	return ok && s.probed[slot*len(s.cursor)+i]
}

// applyShifts fires the cost shifts due at this access on the run's
// columns; a shift names a backend predicate.
func (s *Session) applyShifts() {
	for _, sh := range s.shifts {
		for i, c := range s.cols {
			if c != sh.Pred || s.nAccess != sh.AfterAccesses {
				continue
			}
			pc := &s.current[i]
			if sh.SortedFactor > 0 {
				pc.Sorted = scaleCost(pc.Sorted, sh.SortedFactor)
			}
			if sh.RandomFactor > 0 {
				pc.Random = scaleCost(pc.Random, sh.RandomFactor)
			}
		}
	}
}

// FaultTolerant reports whether the session runs with resilience attached
// (WithResilience). Fault-tolerant algorithms use it to decide between
// absorbing a source failure and aborting on it.
func (s *Session) FaultTolerant() bool { return s.res != nil }

// Err surfaces the session context's state, letting algorithms tell a
// query-level deadline or cancellation apart from a source-side failure.
func (s *Session) Err() error { return s.ctx.Err() }

// Bind re-points the session's context for all subsequent accesses,
// replacing the one WithContext attached (or a previous Bind). Resumable
// cursors use it to give every page its own deadline: a page's timeout
// must not outlive the request that asked for the page, yet the session —
// and the paid-for state behind it — survives between requests. The
// session's access deadline is re-pointed at ctx, not rebuilt. A nil ctx
// resets to context.Background() and ends the caller's use of the session:
// the windows are dropped and the read-ahead they served is reported to the
// backend (ReadAheadCounter), as when Reset starts the next run — the
// engine binds nil before pooling a session, the service after every cursor
// page.
func (s *Session) Bind(ctx context.Context) {
	if ctx == nil {
		s.dropWindows()
		ctx = context.Background()
	}
	s.ctx = ctx
	s.bindDeadline()
}

// dropWindows drops every predicate's window.
func (s *Session) dropWindows() {
	for i := range s.cols {
		s.dropWindow(i)
	}
}

// dropWindow empties predicate i's window. The backend counted the first
// entry of its page when it served it; the others the run consumed, it
// learns of now.
func (s *Session) dropWindow(i int) {
	if n := s.wins[i].Drop(); n > 1 {
		Consumed(s.backend, s.cols[i], n-1)
	}
}

// bindDeadline re-points the session's access deadline at its context and
// current access timeout (Reset, Bind). A deadline that cannot be
// re-pointed — spent, or still out with an abandoned access — is retired,
// and the next access that needs one builds it afresh.
func (s *Session) bindDeadline() {
	if s.actx == nil {
		return
	}
	var timeout time.Duration
	if s.res != nil {
		timeout = s.res.AccessTimeout
	}
	if !s.actx.bind(s.ctx, timeout) {
		s.actx.retire()
		s.actx = nil
	}
}

// Degraded returns the machine-readable degradation reasons accumulated so
// far (circuits opened during this session), in first-seen order.
func (s *Session) Degraded() []string {
	return append([]string(nil), s.degraded...)
}

// FailureBudget is how many consecutive unbilled failures a fault-tolerant
// algorithm should absorb before declaring the answer degraded. It is
// sized so that a fully dead source trips every breaker with room to
// spare; zero (no resilience) means any failure is terminal.
func (s *Session) FailureBudget() int {
	if s.res == nil {
		return 0
	}
	threshold := 3
	if s.res.Breakers != nil {
		threshold = s.res.Breakers.c.cfg.FailureThreshold
	}
	return 16 + 8*threshold*s.M()
}

// noteDegraded records a degradation reason once.
func (s *Session) noteDegraded(reason string) {
	for _, r := range s.degraded {
		if r == reason {
			return
		}
	}
	s.degraded = append(s.degraded, reason)
}

// noteTransitions emits breaker transitions to the observer and records
// newly opened circuits as degradation reasons. Open/close transitions
// also refresh the session's capability view.
func (s *Session) noteTransitions(trs []BreakerTransition) {
	if len(trs) == 0 {
		return
	}
	for _, tr := range trs {
		if s.obs != nil {
			s.obs.Observe(obs.Event{Kind: obs.BreakerTransition, Access: obsKind(tr.Kind), Pred: tr.Pred,
				Code: obs.Transition(obsBreakerState(tr.From), obsBreakerState(tr.To))})
		}
		if tr.To == BreakerOpen {
			s.noteDegraded(fmt.Sprintf("circuit_open:%s:p%d", tr.Kind, tr.Pred+1))
		}
	}
	s.refreshCapabilities()
}

// obsBreakerState maps a breaker state onto the observability mirror type.
func obsBreakerState(st BreakerState) obs.BreakerState {
	switch st {
	case BreakerOpen:
		return obs.BreakerOpen
	case BreakerHalfOpen:
		return obs.BreakerHalfOpen
	default:
		return obs.BreakerClosed
	}
}

// syncBreakers folds the shared breaker set's state into the session's
// capability view: it advances cooldown-elapsed circuits to half-open and,
// when any session sharing the set changed a circuit, refreshes which
// capabilities read as supported. With no resilience attached this is a
// nil check; with every circuit closed and no failure counted it is two
// atomic loads (BreakerSet.unsettled, then the generation).
func (s *Session) syncBreakers() {
	if s.res == nil || s.res.Breakers == nil {
		return
	}
	s.noteTransitions(s.res.Breakers.Poll())
	if g := s.res.Breakers.Generation(); g != s.resGen {
		s.resGen = g
		s.refreshCapabilities()
	}
}

// refreshCapabilities recomputes the capability bits of the current
// scenario from the breakers: a capability is available iff the original
// scenario supports it and its circuit is not open. Unit costs are left
// alone (they belong to shifts).
func (s *Session) refreshCapabilities() {
	set := s.res.Breakers
	if set == nil {
		return
	}
	// A window read before the breakers moved is not served after: the next
	// access refills, acquiring its breaker as every access did before.
	s.dropWindows()
	for i, c := range s.cols {
		s.current[i].SortedOK = s.orig[i].SortedOK && set.State(SortedAccess, c) != BreakerOpen
		s.current[i].RandomOK = s.orig[i].RandomOK && set.State(RandomAccess, c) != BreakerOpen
	}
}

// breakerTripped reports whether a capability the original scenario
// supports currently reads as unsupported because of breaker degradation.
func (s *Session) breakerTripped(kind Kind, i int) bool {
	if s.res == nil {
		return false
	}
	if kind == SortedAccess {
		return s.orig[i].SortedOK && !s.current[i].SortedOK
	}
	return s.orig[i].RandomOK && !s.current[i].RandomOK
}

// acquireBreaker asks the breaker set for permission to access; a refusal
// (open circuit, or a half-open circuit whose probe slot another session
// holds) suppresses the capability locally so choice construction stops
// proposing it until the set's state moves again.
//
//topklint:hotpath
func (s *Session) acquireBreaker(kind Kind, i int) bool {
	if s.res == nil || s.res.Breakers == nil {
		return true
	}
	if s.res.Breakers.Acquire(kind, s.cols[i]) {
		return true
	}
	if kind == SortedAccess {
		s.current[i].SortedOK = false
	} else {
		s.current[i].RandomOK = false
	}
	return false
}

// recordBreaker reports an access outcome to the breaker set.
//
//topklint:hotpath
func (s *Session) recordBreaker(kind Kind, i int, ok bool) {
	if s.res == nil || s.res.Breakers == nil {
		return
	}
	s.noteTransitions(s.res.Breakers.Record(kind, s.cols[i], ok))
}

// failAccess classifies a backend failure under resilience: a source-side
// failure (including a per-access timeout) is recorded against the breaker
// and wrapped in ErrAccessFailed so fault-tolerant algorithms absorb it; a
// failure caused by the session's own context stays terminal.
func (s *Session) failAccess(kind Kind, i int, err error) error {
	if s.res == nil {
		return err
	}
	if s.ctx.Err() == nil {
		s.recordBreaker(kind, i, false)
		return fmt.Errorf("%w: %w", ErrAccessFailed, err)
	}
	// Caller-side cancellation: no verdict on the source; free any probe.
	if s.res.Breakers != nil {
		s.res.Breakers.Release(kind, s.cols[i])
	}
	return err
}

// rangeViolation is the refusal of a sorted answer naming an object outside
// the universe: nothing the session keeps per object can hold it, so it is
// turned away unbilled like any other broken contract.
func rangeViolation(pred, obj, n int) error {
	return &ContractViolationError{
		Kind: SortedAccess, Pred: pred, Reason: "range",
		Detail: fmt.Sprintf("returned object %d outside universe [0,%d)", obj, n),
	}
}

// Pending is an access between admission and settlement: what Admit hands
// the caller to perform, and — once Perform has run — the source's answer.
// An access is three steps, and SortedNext/Random are exactly the three in
// sequence:
//
//   - Admit runs every legality check, prices the access at the costs in
//     force, reserves that cost against the budget, acquires the breaker,
//     and hands out the list rank or marks the probe, so a second Admit
//     cannot duplicate the access;
//   - Perform is the one raw backend call, under the per-access deadline. It
//     reads only the Pending and the backend, so it may run on any
//     goroutine;
//   - Settle turns the reservation into a bill — ledger, seen set, trace,
//     AccessDone, breaker success — or, for a failed access, releases it:
//     the rank or probe is handed back, nothing is billed, AccessDenied is
//     emitted once and the failure is recorded against the breaker.
//
// A sorted access whose rank the predicate's window holds is a window hit:
// Admit hands it its entry, and it skips the breaker, the access deadline
// and the backend call. Any other sorted access is a refill — one Page into
// a buffer of its own, which Settle makes the predicate's window.
//
// Admit and Settle touch session state and belong to the one goroutine that
// owns the session; any number of admitted accesses may be out at once.
type Pending struct {
	Kind  Kind
	Pred  int
	Rank  int     // sorted: the list rank handed out
	Obj   int     // random: the target; sorted: the object returned (a hit's at admission, a refill's at settle)
	Score float64 // the score returned: a probe's once performed, a sorted access's with Obj
	Err   error   // the backend's failure, once performed
	Cost  Cost    // the unit cost in force at admission: reserved then, billed at settle

	page  []Entry         // a refill's buffer, then the page it read; nil for a window hit
	ctx   context.Context // what Perform hands the backend
	dl    *Deadline       // ctx's access clock, nil without an AccessTimeout
	fired bool            // dl expired before the access returned
}

// windowSize is how many entries a refill asks a predicate's list for.
const windowSize = 64

// errBadPage refuses a page that broke the Page contract: no entry and no
// error, or more entries than it was asked for.
var errBadPage = errors.New("access: page returned no entry and no error, or more than asked")

// SortedNext performs sa_i: it returns the next object in descending p_i
// order along with its score, accruing cs_i. It fails with ErrExhausted at
// the end of the list and ErrSortedUnsupported if the scenario forbids it.
//
//topklint:hotpath
func (s *Session) SortedNext(i int) (obj int, score float64, err error) {
	var p Pending
	if err := s.Admit(&p, SortedAccess, i, 0); err != nil {
		return 0, 0, err
	}
	s.Perform(&p)
	return s.Settle(&p)
}

// Random performs ra_i(u), accruing cr_i. Under no-wild-guesses the object
// must already have been seen. Repeating a probe is an error.
//
//topklint:hotpath
func (s *Session) Random(i, u int) (float64, error) {
	var p Pending
	if err := s.Admit(&p, RandomAccess, i, u); err != nil {
		return 0, err
	}
	s.Perform(&p)
	_, score, err := s.Settle(&p)
	return score, err
}

// Admit checks that sa_i — or ra_i(u); u is ignored for a sorted access —
// is legal and affordable right now and, if so, commits the session to it
// and fills p: the caller owes p one Perform and one Settle. A refusal
// changes nothing.
//
//topklint:hotpath
func (s *Session) Admit(p *Pending, kind Kind, i, u int) error {
	if i < 0 || i >= s.M() {
		return fmt.Errorf("access: predicate %d out of range", i)
	}
	if kind == RandomAccess && (u < 0 || u >= s.N()) {
		return fmt.Errorf("access: object %d out of range", u)
	}
	s.syncBreakers()
	pc := &s.current[i]
	if kind == SortedAccess && !pc.SortedOK || kind == RandomAccess && !pc.RandomOK {
		if s.breakerTripped(kind, i) {
			s.observeDenied(kind, i, obs.DenyBreaker)
			return fmt.Errorf("%w: %v on p%d", ErrCircuitOpen, kind, i+1)
		}
		s.observeDenied(kind, i, obs.DenyUnsupported)
		if kind == SortedAccess {
			return fmt.Errorf("%w: p%d", ErrSortedUnsupported, i+1)
		}
		return fmt.Errorf("%w: p%d", ErrRandomUnsupported, i+1)
	}
	switch {
	case kind == SortedAccess:
		if s.SortedExhausted(i) {
			s.observeDenied(kind, i, obs.DenyExhausted)
			return fmt.Errorf("%w: p%d", ErrExhausted, i+1)
		}
	case s.nwg && !s.Seen(u):
		s.observeDenied(kind, i, obs.DenyWildGuess)
		return fmt.Errorf("%w: ra%d(u%d)", ErrWildGuess, i+1, u)
	case s.Probed(i, u):
		s.observeDenied(kind, i, obs.DenyRepeatedProbe)
		return fmt.Errorf("%w: ra%d(u%d)", ErrRepeatedProbe, i+1, u)
	}
	s.applyShifts()
	cost := pc.Sorted
	if kind == RandomAccess {
		cost = pc.Random
	}
	// Accesses admitted and not yet settled count against the budget, so
	// what is billed never exceeds it however many are out at once.
	if s.hasBudget && s.cost+s.reserved+cost > s.budget {
		s.observeDenied(kind, i, obs.DenyBudget)
		return fmt.Errorf("%w: %v%d would cost %v with %v left", ErrBudgetExhausted, kind, i+1, cost, s.budget-s.cost-s.reserved)
	}
	// A hit needs the session's context alive, as a backend call would: a
	// cancelled run's next sorted access fails whatever its window holds.
	w := &s.wins[i]
	hit := kind == SortedAccess && w.Len() > 0 && w.Rank() == s.cursor[i] && s.ctx.Err() == nil
	if !hit && !s.acquireBreaker(kind, i) {
		s.observeDenied(kind, i, obs.DenyBreaker)
		return fmt.Errorf("%w: %v on p%d (probe in flight)", ErrCircuitOpen, kind, i+1)
	}
	// Field by field: a composite literal is built aside and copied in.
	p.Kind, p.Pred, p.Rank, p.Obj, p.Cost = kind, i, 0, u, cost
	p.Score, p.Err, p.page = 0, nil, nil
	p.ctx, p.dl, p.fired = s.ctx, nil, false
	switch k := len(s.spare); {
	case kind == RandomAccess:
		s.probed[s.touch(u)*len(s.cursor)+i] = true
	case hit:
		e := w.Next()
		p.Obj, p.Score = e.Obj, e.Score
	case k > 0: // a refill, into a spare buffer
		p.page, s.spare = s.spare[k-1], s.spare[:k-1]
	default:
		//topklint:allow hotpathalloc a session makes one buffer per window and a spare on its first refills, then reuses them; only refills out at once need more
		p.page = make([]Entry, windowSize)
	}
	if kind == SortedAccess {
		p.Rank = s.cursor[i]
		s.cursor[i]++
	}
	s.reserved += cost
	s.nAccess++
	if !hit && s.res != nil && s.res.AccessTimeout > 0 {
		s.arm(p)
	}
	return nil
}

// arm starts the access clock of an admitted access. The session's own
// re-armable deadline serves it when no other access is running under it;
// accesses that overlap one get a deadline of their own.
//
//topklint:hotpath
func (s *Session) arm(p *Pending) {
	d := s.actx
	if d == nil || d.armed.Load() != 0 {
		//topklint:allow hotpathalloc once per session life (and after a deadline is spent) when accesses run one at a time, then re-armed per access
		d = newAccessDeadline(s.ctx, s.res.AccessTimeout)
		if s.actx == nil {
			s.actx = d
		}
	}
	d.arm()
	p.dl, p.ctx = d, d
}

// Perform makes the backend call of an admitted access, on the backend
// predicate the run's column selects, and stops its access clock: a probe,
// or a refill's one page from its rank; a window hit has nothing to do. It
// reads nothing of the session but the backend and the columns, both fixed
// for the run, and writes only the Pending and the refill's own buffer, so
// the executor may run it off the goroutine that admits and settles.
//
//topklint:hotpath
func (s *Session) Perform(p *Pending) {
	switch {
	case p.Kind == RandomAccess:
		p.Score, p.Err = s.backend.Random(p.ctx, s.cols[p.Pred], p.Obj)
	case p.page != nil:
		n, err := s.pages.Page(p.ctx, s.cols[p.Pred], p.Rank, p.page)
		if err != nil || n < 1 || n > len(p.page) {
			n, p.Err = 0, cmp.Or(err, errBadPage)
		}
		p.page = p.page[:n]
	}
	if p.dl != nil {
		p.fired = !p.dl.disarm()
	}
}

// Settle closes a performed access: a successful one is billed and
// returned, a failed one is released — its rank or probe handed back,
// nothing billed — and classified (see failAccess). A sorted list whose
// access fails is rewound to the failed rank; later ranks already out are
// the caller's to abandon.
//
//topklint:hotpath
func (s *Session) Settle(p *Pending) (obj int, score float64, err error) {
	kind, i := p.Kind, p.Pred
	s.reserved -= p.Cost
	// A deadline that fired — even one firing as the access returned — is
	// spent, and one made for an overlapping access is done: only the
	// session's own, unfired, is armed again.
	if d := p.dl; d != nil && (p.fired || d != s.actx) {
		d.retire()
		if d == s.actx {
			s.actx = nil
		}
	}
	if p.page != nil {
		s.land(p)
	}
	err = p.Err
	if err == nil && kind == SortedAccess && (p.Obj < 0 || p.Obj >= s.idx.N()) {
		//topklint:allow hotpathalloc error construction: the access is refused, which is off the billed path
		err = rangeViolation(i, p.Obj, s.idx.N())
	}
	if err != nil {
		s.nAccess--
		s.observeFailure(kind, i, err)
		if kind == SortedAccess {
			// Rewound below its window, the list refills at the failed
			// rank, and the page landing there hands the window back.
			s.cursor[i] = min(s.cursor[i], p.Rank)
			return 0, 0, s.failAccess(kind, i, fmt.Errorf("access: backend sorted(p%d, rank %d): %w", i+1, p.Rank, err))
		}
		s.probed[s.touch(p.Obj)*len(s.cursor)+i] = false
		return 0, 0, s.failAccess(kind, i, fmt.Errorf("access: backend random(p%d, u%d): %w", i+1, p.Obj, err))
	}
	if kind == RandomAccess || p.page != nil { // a window hit passed no breaker
		s.recordBreaker(kind, i, true)
	}
	s.cost += p.Cost
	if kind == SortedAccess {
		s.ns[i]++
		if slot := s.touch(p.Obj); !s.seen[slot] {
			s.seen[slot] = true
			s.nseen++
		}
	} else {
		s.nr[i]++
	}
	if s.traceOn {
		s.trace = append(s.trace, Record{Kind: kind, Pred: i, Obj: p.Obj, Score: p.Score, Cost: p.Cost})
	}
	if s.obs != nil {
		s.obs.Observe(obs.Event{Kind: obs.AccessDone, Access: obsKind(kind), Pred: i, Value: p.Cost.Units()})
	}
	return p.Obj, p.Score, nil
}

// land makes a refill's page the predicate's window and takes its first
// entry — the one the refill was for — as the access's answer; the window
// it replaces is dropped, its buffer going to the spares. A window left out
// of line with the cursor — an access refused or failed below it, or other
// refills of the list out at once — serves no hit: the next access refills
// there, and its page replaces the window.
//
//topklint:hotpath
func (s *Session) land(p *Pending) {
	w := &s.wins[p.Pred]
	s.dropWindow(p.Pred)
	if old := w.Land(p.Rank, p.page); cap(old) > 0 {
		s.spare = append(s.spare, old[:cap(old)])
	}
	if w.Len() > 0 {
		e := w.Next()
		p.Obj, p.Score = e.Obj, e.Score
	}
}

// TotalCost returns the cost accrued so far — Ledger().TotalCost without
// the snapshot's per-predicate count copies.
func (s *Session) TotalCost() Cost { return s.cost }

// Ledger returns a snapshot of accrued accesses and total cost, the
// caller's to keep: both count slices share one fresh backing array, each
// capped at its own length.
func (s *Session) Ledger() Ledger {
	m := s.M()
	counts := make([]int, 2*m)
	copy(counts, s.ns)
	copy(counts[m:], s.nr)
	return Ledger{SortedCounts: counts[:m:m], RandomCounts: counts[m:], TotalCost: s.cost}
}

// Trace returns the recorded access trace (nil unless WithTrace was set).
func (s *Session) Trace() []Record { return s.trace }
