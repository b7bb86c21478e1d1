// Package obs is the middleware's observability layer: runtime metrics,
// per-query access traces, and a pluggable event stream.
//
// The paper's contribution is an access-cost ledger (Eq. 1); in a deployed
// middleware the same accounting must be visible while queries run, not
// only after. This package provides three pieces, all stdlib-only:
//
//   - Registry: a metrics registry of atomic counters, gauges, and
//     histograms with Prometheus text exposition (lock-free on the update
//     hot path; registration and exposition take a registry lock).
//   - Observer: the one-method event sink the engine emits into. An Event
//     is a small value whose Kind names the fact — accesses performed and
//     refused, execution phases, optimizer estimator evaluations,
//     framework-loop progress, executor concurrency, web-source retries.
//     Nop is the zero-allocation default; Multi fans out to several
//     observers.
//   - QueryTrace: an Observer that accumulates one query's events into a
//     JSON-serializable snapshot — the per-query analogue of the ledger,
//     returned by the HTTP service under ?trace=1.
//
// The package deliberately imports nothing from the engine so every layer
// (access, algo, opt, parallel, websim, service) can emit into it without
// cycles; access kinds and phases are mirrored here as their own types.
package obs

// AccessKind mirrors the two access types of the paper's Section 3.2
// (access.Kind) without importing the access package.
type AccessKind uint8

const (
	// Sorted is sa_i: the next object of a predicate's descending list.
	Sorted AccessKind = iota
	// Random is ra_i(u): the exact score of one object on one predicate.
	Random
)

// String returns "sorted" or "random".
func (k AccessKind) String() string {
	if k == Sorted {
		return "sorted"
	}
	return "random"
}

// DenyReason classifies why a session refused (or failed) an access
// without billing it.
type DenyReason uint8

const (
	// DenyUnsupported: the scenario forbids this access kind on the predicate.
	DenyUnsupported DenyReason = iota
	// DenyExhausted: the sorted list is fully consumed.
	DenyExhausted
	// DenyWildGuess: random access to an unseen object under no-wild-guesses.
	DenyWildGuess
	// DenyRepeatedProbe: a second random access to the same (pred, obj).
	DenyRepeatedProbe
	// DenyBudget: the access would exceed the session's cost budget.
	DenyBudget
	// DenyCancelled: the run's context was cancelled or timed out.
	DenyCancelled
	// DenyBackend: the backend failed the access (transport or source error).
	DenyBackend
	// DenyBreaker: the capability's circuit breaker is open after repeated
	// source failures; the access was refused without touching the source.
	DenyBreaker
	// DenyContract: the contract guard rejected the source's response
	// (sorted-order violation, NaN score, duplicate id, or a random result
	// inconsistent with an earlier sorted sighting); the corrupt value was
	// discarded before it could reach the threshold math.
	DenyContract

	numDenyReasons = int(DenyContract) + 1
)

// String returns the reason's label as exposed in metrics and traces.
func (d DenyReason) String() string {
	switch d {
	case DenyUnsupported:
		return "unsupported"
	case DenyExhausted:
		return "exhausted"
	case DenyWildGuess:
		return "wild_guess"
	case DenyRepeatedProbe:
		return "repeated_probe"
	case DenyBudget:
		return "budget"
	case DenyCancelled:
		return "cancelled"
	case DenyBackend:
		return "backend"
	case DenyBreaker:
		return "breaker"
	case DenyContract:
		return "contract"
	default:
		return "unknown"
	}
}

// DenyReasons lists every reason, for observers that pre-register one
// metric per label value.
func DenyReasons() []DenyReason {
	return []DenyReason{
		DenyUnsupported, DenyExhausted, DenyWildGuess,
		DenyRepeatedProbe, DenyBudget, DenyCancelled, DenyBackend,
		DenyBreaker, DenyContract,
	}
}

// BreakerState mirrors the circuit-breaker states of the access layer's
// resilience machinery (access.BreakerState) without importing it.
type BreakerState uint8

const (
	// BreakerClosed: the capability is healthy; accesses flow through.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures tripped the circuit; the capability
	// is flipped off in the session's current scenario.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; one probe access is let
	// through to decide between closing and re-opening.
	BreakerHalfOpen
)

// String returns "closed", "open", or "half_open" as exposed in metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// Phase names one stage of a query execution.
type Phase string

const (
	// PhaseParse covers SQL parsing and column binding (service layer).
	PhaseParse Phase = "parse"
	// PhasePlan covers dataset projection, engine construction, and the
	// plan-cache lookup (service layer).
	PhasePlan Phase = "plan"
	// PhaseOptimize covers the cost-based SR/G configuration search.
	PhaseOptimize Phase = "optimize"
	// PhaseExecute covers the framework run itself.
	PhaseExecute Phase = "execute"
)

// Kind names one engine fact. The set is closed: every sink is one switch
// over it, and a new fact costs a constant here and a case per sink that
// cares (the exhaustiveness test in this package fails for a Kind a sink
// neither reacts to nor lists as ignored). Each constant documents which
// Event fields carry its payload; the others stay zero.
type Kind uint8

const (
	// AccessDone: one performed (billed) access. Access, Pred; Value is the
	// billed cost in cost units.
	AccessDone Kind = iota
	// AccessDenied: an access was refused or failed; nothing was billed for
	// it. Access, Pred; Code is the DenyReason.
	AccessDenied
	// PhaseDone: an execution phase completed. Label is the Phase; Value its
	// duration in seconds.
	PhaseDone
	// EstimatorEval: one optimizer cost estimate. Code is Hit when the
	// configuration was already priced (no simulation run), Miss otherwise.
	EstimatorEval
	// LoopIteration: one framework scheduling iteration. Value is the
	// current candidate-queue size (the K_P working set).
	LoopIteration
	// InflightChange: a concurrent executor started (Value > 0) or finished
	// (Value < 0) that many accesses.
	InflightChange
	// DispatchStall: a concurrent executor has free slots but no
	// dispatchable necessary access (it must wait for completions).
	DispatchStall
	// SourceRetry: a web-source client is about to back off and retry a
	// failed request. Value is the backoff in seconds.
	SourceRetry
	// SourceFailure: a web-source request failed for good (retries
	// exhausted or non-retryable).
	SourceFailure
	// PlanCache: a plan-cache lookup, emitted once its plan is known. Code
	// is Hit, Miss (a cold search) or Warm (a search started from a cached
	// neighbour's plan); Value is the plan's estimator runs.
	PlanCache
	// PlanCacheEvict: the plan cache discarded an entry, either to make
	// room (LRU capacity) or because its scenario fingerprint was
	// invalidated.
	PlanCacheEvict
	// BreakerTransition: a capability's circuit breaker changed state (open
	// on consecutive failures, half-open after the cooldown, closed on a
	// successful probe). Access, Pred; Code is Transition(from, to).
	BreakerTransition
	// DegradedReplan: the engine re-planned around a degraded scenario
	// instead of failing — a faulted or breaker-refused access was absorbed
	// and the framework re-derived its choices. Label is a machine-readable
	// reason ("circuit_open", "source_failure", ...).
	DegradedReplan
	// AdaptiveReplan: the divergence monitor swapped the plan mid-query.
	// Label is the trigger (ReplanTriggers: observed behavior drifted past
	// the checkpoint threshold, far enough to distrust the estimator's
	// sample entirely, or the cost scenario itself changed); Value the
	// divergence score that triggered the swap.
	AdaptiveReplan
	// ContractViolation: the contract guard rejected a source response
	// before it could corrupt the threshold math. Access, Pred; Label is
	// one of ViolationReasons.
	ContractViolation
	// RequestShed: the service refused a query at admission because the
	// inflight cap is reached (load shedding).
	RequestShed

	numKinds = int(RequestShed) + 1
)

// Hit and Miss are the Event codes of EstimatorEval and PlanCache; Warm
// is PlanCache's third, a miss whose search started from a neighbour.
const (
	Miss uint8 = iota
	Hit
	Warm
)

// PlanSources names where a PlanCache lookup's plan came from, indexed by
// Code: the trace's planSource and opt.Source's names.
var PlanSources = [...]string{Miss: "cold", Hit: "hit", Warm: "warm"}

// Event is one engine fact, passed by value so delivery never allocates.
// Kind says which fact; the Kind constants say which other fields it fills.
type Event struct {
	Kind   Kind
	Access AccessKind
	// Code is the event's small enumerated payload: a DenyReason, Hit/Miss/Warm,
	// or a packed breaker Transition.
	Code  uint8
	Pred  int
	Value float64
	// Label is drawn from a static vocabulary (a Phase, ReplanTriggers,
	// ViolationReasons, the engine's degradation reasons), never built per
	// event.
	Label string
}

// Transition packs a breaker state change into a BreakerTransition event's
// Code.
func Transition(from, to BreakerState) uint8 { return uint8(from)<<4 | uint8(to) }

// Breaker unpacks a BreakerTransition event's Code.
func (e Event) Breaker() (from, to BreakerState) {
	return BreakerState(e.Code >> 4), BreakerState(e.Code & 0xf)
}

// Observer receives engine events. Implementations shared across HTTP
// requests must be safe for concurrent use (parallel.Executor emits from
// its one coordinating goroutine, also on a live run); Nop, Metrics and
// QueryTrace all are.
//
// Observe must be cheap and non-blocking: events fire on the access hot
// path, and a stalled observer stalls the query.
type Observer interface {
	Observe(Event)
}

// ReplanTriggers lists every AdaptiveReplan label, for observers that
// pre-register one metric per label value.
func ReplanTriggers() []string {
	return []string{"divergence", "stale_sample", "scenario_change"}
}

// ViolationReasons lists every ContractViolation label, for observers
// that pre-register one metric per label value.
func ViolationReasons() []string {
	return []string{"unsorted", "nan", "range", "dup", "inconsistent"}
}

// Nop is the zero-allocation no-op Observer. It is the default wherever an
// Observer is optional.
type Nop struct{}

// Observe implements Observer.
func (Nop) Observe(Event) {}

// multi fans every event out to each member in order.
type multi []Observer

func (m multi) Observe(ev Event) {
	for _, o := range m {
		o.Observe(ev)
	}
}

// Multi combines observers into one that fans events out in argument
// order. Nil members are dropped; zero live members yield Nop.
func Multi(obs ...Observer) Observer {
	live := make(multi, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	default:
		return live
	}
}
