package obs

import (
	"slices"
	"sync"
)

// PhaseSpan is one completed execution phase of a query.
type PhaseSpan struct {
	Phase   Phase   `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// TraceSnapshot is the JSON form of a query's accumulated trace: the
// per-query counterpart of the ledger, extended with everything the
// engine observed while producing it. The HTTP service returns it in the
// QueryResponse when the request asks for ?trace=1.
type TraceSnapshot struct {
	// Phases lists completed execution phases in completion order.
	Phases []PhaseSpan `json:"phases,omitempty"`
	// SortedAccesses and RandomAccesses count billed accesses per
	// predicate — they must sum exactly to the session ledger's ns_i/nr_i.
	SortedAccesses []int `json:"sortedAccesses"`
	RandomAccesses []int `json:"randomAccesses"`
	// CostUnits is the total billed access cost in cost units (Eq. 1).
	CostUnits float64 `json:"costUnits"`
	// Denied counts refused or failed accesses by reason (absent when none).
	Denied map[string]int `json:"denied,omitempty"`
	// EstimatorEvals counts optimizer simulation runs; EstimatorMemoHits
	// counts configurations priced from the estimator's memo instead.
	EstimatorEvals    int `json:"estimatorEvals,omitempty"`
	EstimatorMemoHits int `json:"estimatorMemoHits,omitempty"`
	// Iterations counts framework scheduling iterations;
	// CandidatesHighWater is the largest candidate queue (K_P working set)
	// seen during the run.
	Iterations          int `json:"iterations,omitempty"`
	CandidatesHighWater int `json:"candidatesHighWater,omitempty"`
	// InflightHighWater is the peak concurrent accesses of a parallel run;
	// DispatchStalls counts rounds where free slots had nothing to launch.
	InflightHighWater int `json:"inflightHighWater,omitempty"`
	DispatchStalls    int `json:"dispatchStalls,omitempty"`
	// SourceRetries/SourceFailures count web-source request retries and
	// terminal failures; BackoffSeconds is total retry sleep time.
	SourceRetries  int     `json:"sourceRetries,omitempty"`
	SourceFailures int     `json:"sourceFailures,omitempty"`
	BackoffSeconds float64 `json:"backoffSeconds,omitempty"`
	// PlanCacheHit reports the service plan-cache outcome (nil when no
	// lookup happened, e.g. direct engine use).
	PlanCacheHit *bool `json:"planCacheHit,omitempty"`
	// PlanSource says where the plan-cache lookup's plan came from: "hit",
	// "warm" (a one-start search from the cached plan of the nearest
	// weights) or "cold" (a multi-start search); PlanEvals is the
	// estimator runs that plan cost when it was searched, paid by this
	// query unless it was a hit. Both are empty when no lookup happened.
	PlanSource string `json:"planSource,omitempty"`
	PlanEvals  int    `json:"planEvals,omitempty"`
	// PlanSample names the sample the plan was searched on: "dummy(50)"
	// for the synthesized uniform one, "base(<rows>)" for rows drawn from
	// the engine's own data, else the given sample's name.
	PlanSample string `json:"planSample,omitempty"`
	// PlanCacheEvictions counts plan-cache entries discarded while this
	// query ran (LRU capacity or scenario invalidation).
	PlanCacheEvictions int `json:"planCacheEvictions,omitempty"`
	// BudgetExhausted reports that at least one access was refused because
	// the session's cost budget ran dry (the anytime cutoff).
	BudgetExhausted bool `json:"budgetExhausted,omitempty"`
	// BreakerTransitions lists circuit-breaker state changes during the
	// query, in occurrence order.
	BreakerTransitions []BreakerEvent `json:"breakerTransitions,omitempty"`
	// DegradedReplans counts how often the engine re-planned around a
	// degraded scenario instead of failing the query.
	DegradedReplans int `json:"degradedReplans,omitempty"`
	// DegradedReasons are the machine-readable degradation labels the
	// engine reported while re-planning (deduplicated, in first-seen order).
	DegradedReasons []string `json:"degradedReasons,omitempty"`
	// AdaptiveReplans lists mid-query plan swaps by the divergence monitor,
	// in occurrence order, each with the trigger and the divergence score
	// that crossed the threshold.
	AdaptiveReplans []ReplanEvent `json:"adaptiveReplans,omitempty"`
	// ContractViolations lists source responses the contract guard
	// rejected during this query, in occurrence order.
	ContractViolations []ContractEvent `json:"contractViolations,omitempty"`
	// Cursor identifies the server-side cursor a traced page belongs to
	// (nil for one-shot queries). The trace itself is cumulative across the
	// cursor's pages, exactly like its ledger.
	Cursor *CursorTrace `json:"cursor,omitempty"`
}

// CursorTrace is the cursor-identity block of a traced paged response: which
// cursor produced the page, how deep pagination has gone, and whether the
// underlying execution has run dry. The service fills it in — the engine's
// QueryTrace accumulates per-query events and does not know cursor identity.
type CursorTrace struct {
	ID        string `json:"id"`
	Page      int    `json:"page"`
	Emitted   int    `json:"emitted"`
	Exhausted bool   `json:"exhausted,omitempty"`
}

// ReplanEvent is one mid-query adaptive plan swap as recorded in a trace.
type ReplanEvent struct {
	Trigger    string  `json:"trigger"`
	Divergence float64 `json:"divergence"`
}

// ContractEvent is one guard-rejected source response as recorded in a
// trace.
type ContractEvent struct {
	Kind AccessKind `json:"-"`
	// KindName is the access kind ("sorted"/"random") in JSON form.
	KindName string `json:"kind"`
	Pred     int    `json:"pred"`
	Reason   string `json:"reason"`
}

// BreakerEvent is one circuit-breaker state change as recorded in a trace.
type BreakerEvent struct {
	Kind AccessKind `json:"-"`
	// KindName is the access kind ("sorted"/"random") in JSON form.
	KindName string `json:"kind"`
	Pred     int    `json:"pred"`
	From     string `json:"from"`
	To       string `json:"to"`
}

// QueryTrace is an Observer that accumulates one query's events straight
// into the TraceSnapshot it reports. It is safe for concurrent use (the
// live executor emits from its coordinating goroutine while web-source
// clients emit retries from request goroutines); a single short mutex
// guards all state, taken per page for billed accesses, which arrive folded.
type QueryTrace struct {
	mu sync.Mutex
	s  TraceSnapshot // Denied and PlanCacheHit are filled in by Snapshot

	denied   [numDenyReasons]int
	inflight int
}

// NewQueryTrace returns an empty trace. Per-predicate slices grow on
// demand, so one trace works for any predicate count.
func NewQueryTrace() *QueryTrace { return &QueryTrace{} }

// growTo extends s with zeros to cover index i, in one step: the first
// event of the highest predicate sizes the slice for every lower one.
func growTo(s []int, i int) []int {
	if i < len(s) {
		return s
	}
	return append(s, make([]int, i+1-len(s))...)
}

// Observe implements Observer.
func (t *QueryTrace) Observe(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case AccessDone:
		if ev.Access == Sorted {
			t.s.SortedAccesses = growTo(t.s.SortedAccesses, ev.Pred)
			t.s.SortedAccesses[ev.Pred] += ev.N
		} else {
			t.s.RandomAccesses = growTo(t.s.RandomAccesses, ev.Pred)
			t.s.RandomAccesses[ev.Pred] += ev.N
		}
		t.s.CostUnits += ev.Value * float64(ev.N)
	case AccessDenied:
		if int(ev.Code) < numDenyReasons {
			t.denied[ev.Code]++
		}
		// Keep the per-predicate slices wide enough that a trace of a
		// refused-only predicate still reports it with zero billed accesses.
		t.s.SortedAccesses = growTo(t.s.SortedAccesses, ev.Pred)
		t.s.RandomAccesses = growTo(t.s.RandomAccesses, ev.Pred)
	case PhaseDone:
		if t.s.Phases == nil {
			// Room for a query's four phases and a cursor's later pages.
			t.s.Phases = make([]PhaseSpan, 0, 8)
		}
		t.s.Phases = append(t.s.Phases, PhaseSpan{Phase: Phase(ev.Label), Seconds: ev.Value})
	case EstimatorEval:
		if ev.Code == Hit {
			t.s.EstimatorMemoHits++
		} else {
			t.s.EstimatorEvals++
		}
	case LoopIteration:
		t.s.Iterations += ev.N
		t.s.CandidatesHighWater = max(t.s.CandidatesHighWater, ev.Pred)
	case InflightChange:
		t.inflight += int(ev.Value)
		t.s.InflightHighWater = max(t.s.InflightHighWater, t.inflight)
	case DispatchStall:
		t.s.DispatchStalls++
	case SourceRetry:
		t.s.SourceRetries++
		t.s.BackoffSeconds += ev.Value
	case SourceFailure:
		t.s.SourceFailures++
	case PlanCache:
		if int(ev.Code) < len(PlanSources) {
			t.s.PlanSource = PlanSources[ev.Code]
		}
		t.s.PlanEvals = int(ev.Value)
		t.s.PlanSample = ev.Label
	case PlanCacheEvict:
		t.s.PlanCacheEvictions++
	case BreakerTransition:
		from, to := ev.Breaker()
		t.s.BreakerTransitions = append(t.s.BreakerTransitions, BreakerEvent{
			Kind: ev.Access, KindName: ev.Access.String(), Pred: ev.Pred,
			From: from.String(), To: to.String(),
		})
	case DegradedReplan:
		t.s.DegradedReplans++
		if !slices.Contains(t.s.DegradedReasons, ev.Label) {
			t.s.DegradedReasons = append(t.s.DegradedReasons, ev.Label)
		}
	case AdaptiveReplan:
		t.s.AdaptiveReplans = append(t.s.AdaptiveReplans, ReplanEvent{Trigger: ev.Label, Divergence: ev.Value})
	case ContractViolation:
		t.s.ContractViolations = append(t.s.ContractViolations, ContractEvent{
			Kind: ev.Access, KindName: ev.Access.String(), Pred: ev.Pred, Reason: ev.Label,
		})
	case RequestShed:
		// Shed requests never execute, so a per-query trace cannot observe
		// one; the event only feeds metrics.
	}
}

// Snapshot returns a consistent copy of everything accumulated so far.
func (t *QueryTrace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.s
	s.Phases = slices.Clone(s.Phases)
	// The per-predicate counts are always rendered, as [] before any access.
	s.SortedAccesses = append([]int{}, s.SortedAccesses...)
	s.RandomAccesses = append([]int{}, s.RandomAccesses...)
	s.BreakerTransitions = slices.Clone(s.BreakerTransitions)
	s.DegradedReasons = slices.Clone(s.DegradedReasons)
	s.AdaptiveReplans = slices.Clone(s.AdaptiveReplans)
	s.ContractViolations = slices.Clone(s.ContractViolations)
	s.BudgetExhausted = t.denied[DenyBudget] > 0
	for reason, n := range t.denied {
		if n > 0 {
			if s.Denied == nil {
				s.Denied = make(map[string]int)
			}
			s.Denied[DenyReason(reason).String()] = n
		}
	}
	if s.PlanSource != "" {
		hit := s.PlanSource == PlanSources[Hit]
		s.PlanCacheHit = &hit
	}
	return s
}
