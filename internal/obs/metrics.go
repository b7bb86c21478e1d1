package obs

// Metrics is an Observer that folds engine events into a Registry under
// the middleware's standard metric names (all prefixed topk_). Every
// series is registered up front, so event delivery is one switch and a
// handful of atomic operations with no registry lookups — safe and cheap
// on the access hot path.
type Metrics struct {
	accesses   [2]*Counter // by AccessKind
	accessCost *Histogram  // per-access cost units
	denied     [numDenyReasons]*Counter
	phases     map[string]*Histogram // by Phase, plus "other"

	estimator [2]*Counter // by Miss/Hit: simulation runs, memo hits

	iterations *Counter
	candidates *Gauge

	inflight *Gauge
	stalls   *Counter

	retries  *Counter
	failures *Counter
	backoff  *Histogram

	planCache     [len(PlanSources)]*Counter // by Miss/Hit/Warm
	planEvictions *Counter

	breakerTo       [3]*Counter // transitions by resulting state
	breakerOpen     *Gauge      // circuits currently open
	degradedReplans *Counter
	shedRequests    *Counter

	replans  map[string]*Counter // adaptive re-plans by trigger, plus "other"
	contract map[string]*Counter // contract violations by reason, plus "other"
}

// NewMetrics registers the engine metric set on the registry and returns
// the observer feeding it. Multiple observers may share one registry;
// series are get-or-create.
func NewMetrics(reg *Registry) *Metrics {
	m := &Metrics{
		accessCost: reg.Histogram("topk_access_cost_units", "Per-access billed cost in cost units.",
			[]float64{0.5, 1, 2, 5, 10, 20, 50, 100}),
		iterations: reg.Counter("topk_nc_iterations_total", "Framework NC scheduling iterations."),
		candidates: reg.Gauge("topk_nc_candidates", "Candidate queue size (K_P working set) at the last iteration."),
		inflight:   reg.Gauge("topk_executor_inflight", "Concurrent accesses currently in flight."),
		stalls:     reg.Counter("topk_executor_dispatch_stalls_total", "Executor rounds with free slots but no dispatchable access."),
		retries:    reg.Counter("topk_source_retries_total", "Web-source request retries."),
		failures:   reg.Counter("topk_source_failures_total", "Web-source requests that failed for good."),
		backoff: reg.Histogram("topk_source_backoff_seconds", "Retry backoff sleeps.",
			[]float64{.001, .01, .05, .1, .5, 1, 5}),
		planEvictions:   reg.Counter("topk_plan_cache_evictions_total", "Plan-cache entries discarded (LRU capacity or scenario invalidation)."),
		breakerOpen:     reg.Gauge("topk_breaker_open", "Capability circuit breakers currently open."),
		degradedReplans: reg.Counter("topk_degraded_replans_total", "Engine re-plans around a degraded scenario."),
		shedRequests:    reg.Counter("topk_requests_shed_total", "Queries refused at admission (load shedding)."),
		phases:          make(map[string]*Histogram),
		replans:         make(map[string]*Counter),
		contract:        make(map[string]*Counter),
	}
	for code, result := range [2]string{Miss: "run", Hit: "memo"} {
		m.estimator[code] = reg.Counter("topk_estimator_evals_total", "Optimizer cost estimates by result.", L("result", result))
	}
	for code, result := range [len(PlanSources)]string{Miss: "miss", Hit: "hit", Warm: "warm"} {
		m.planCache[code] = reg.Counter("topk_plan_cache_requests_total", "Plan-cache lookups by result.", L("result", result))
	}
	for _, st := range []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen} {
		m.breakerTo[st] = reg.Counter("topk_breaker_transitions_total", "Circuit-breaker state transitions by resulting state.", L("to", st.String()))
	}
	for _, k := range []AccessKind{Sorted, Random} {
		m.accesses[k] = reg.Counter("topk_accesses_total", "Billed source accesses by kind.", L("kind", k.String()))
	}
	for _, d := range DenyReasons() {
		m.denied[d] = reg.Counter("topk_access_denied_total", "Refused or failed accesses by reason.", L("reason", d.String()))
	}
	for _, p := range []Phase{PhaseParse, PhasePlan, PhaseOptimize, PhaseExecute, other} {
		m.phases[string(p)] = reg.Histogram("topk_phase_seconds", "Query execution phase latency.", nil, L("phase", string(p)))
	}
	for _, tr := range append(ReplanTriggers(), other) {
		m.replans[tr] = reg.Counter("topk_replan_total", "Mid-query adaptive re-plans by trigger.", L("trigger", tr))
	}
	for _, v := range append(ViolationReasons(), other) {
		m.contract[v] = reg.Counter("topk_contract_violations_total", "Source contract violations caught by the guard, by reason.", L("reason", v))
	}
	return m
}

// other is the label of the series that absorbs any phase, trigger or
// reason outside its static vocabulary.
const other = "other"

// labeled picks a vocabulary's series by label.
func labeled[T any](series map[string]*T, label string) *T {
	if s, ok := series[label]; ok {
		return s
	}
	return series[other]
}

// Observe implements Observer.
func (m *Metrics) Observe(ev Event) {
	switch ev.Kind {
	case AccessDone:
		if int(ev.Access) < len(m.accesses) {
			m.accesses[ev.Access].Inc()
		}
		m.accessCost.Observe(ev.Value)
	case AccessDenied:
		if int(ev.Code) < numDenyReasons {
			m.denied[ev.Code].Inc()
		}
	case PhaseDone:
		labeled(m.phases, ev.Label).Observe(ev.Value)
	case EstimatorEval:
		m.estimator[ev.Code&Hit].Inc()
	case LoopIteration:
		m.iterations.Inc()
		m.candidates.Set(int64(ev.Value))
	case InflightChange:
		m.inflight.Add(int64(ev.Value))
	case DispatchStall:
		m.stalls.Inc()
	case SourceRetry:
		m.retries.Inc()
		m.backoff.Observe(ev.Value)
	case SourceFailure:
		m.failures.Inc()
	case PlanCache:
		if int(ev.Code) < len(m.planCache) {
			m.planCache[ev.Code].Inc()
		}
	case PlanCacheEvict:
		m.planEvictions.Inc()
	case BreakerTransition:
		from, to := ev.Breaker()
		if int(to) < len(m.breakerTo) {
			m.breakerTo[to].Inc()
		}
		if to == BreakerOpen && from != BreakerOpen {
			m.breakerOpen.Add(1)
		}
		if from == BreakerOpen && to != BreakerOpen {
			m.breakerOpen.Add(-1)
		}
	case DegradedReplan:
		m.degradedReplans.Inc()
	case AdaptiveReplan:
		labeled(m.replans, ev.Label).Inc()
	case ContractViolation:
		labeled(m.contract, ev.Label).Inc()
	case RequestShed:
		m.shedRequests.Inc()
	}
}
