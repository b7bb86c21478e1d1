package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDenyReasonStrings(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range DenyReasons() {
		s := r.String()
		if s == "" || seen[s] {
			t.Errorf("reason %d has empty or duplicate name %q", r, s)
		}
		seen[s] = true
	}
	if len(seen) != numDenyReasons {
		t.Errorf("DenyReasons lists %d reasons, want %d", len(seen), numDenyReasons)
	}
}

// sampleEvents holds one representative event per Kind, at the Kind's own
// index. A Kind added without a sample leaves a zero slot, which
// TestEverySinkHandlesEveryKind rejects.
var sampleEvents = [numKinds]Event{
	AccessDone:        {Kind: AccessDone, Access: Sorted, Pred: 0, N: 1, Value: 1},
	AccessDenied:      {Kind: AccessDenied, Access: Random, Pred: 1, Code: uint8(DenyBudget)},
	PhaseDone:         {Kind: PhaseDone, Label: string(PhaseExecute), Value: 0.001},
	EstimatorEval:     {Kind: EstimatorEval, Code: Hit},
	LoopIteration:     {Kind: LoopIteration, N: 1, Value: 3, Pred: 3},
	InflightChange:    {Kind: InflightChange, Value: +1},
	DispatchStall:     {Kind: DispatchStall},
	SourceRetry:       {Kind: SourceRetry, Value: 0.001},
	SourceFailure:     {Kind: SourceFailure},
	PlanCache:         {Kind: PlanCache, Code: Miss},
	PlanCacheEvict:    {Kind: PlanCacheEvict},
	BreakerTransition: {Kind: BreakerTransition, Access: Sorted, Pred: 0, Code: Transition(BreakerClosed, BreakerOpen)},
	DegradedReplan:    {Kind: DegradedReplan, Label: "circuit_open"},
	AdaptiveReplan:    {Kind: AdaptiveReplan, Label: "divergence", Value: 0.5},
	ContractViolation: {Kind: ContractViolation, Access: Random, Pred: 1, Label: "nan"},
	RequestShed:       {Kind: RequestShed},
}

// TestEverySinkHandlesEveryKind stands in for what a sixteen-method
// interface made the compiler check: each sink either changes observably
// on a Kind or names it in its ignore list. A switch silently drops a Kind
// nobody wrote a case for; this test does not.
func TestEverySinkHandlesEveryKind(t *testing.T) {
	sinks := []struct {
		name    string
		fresh   func() (Observer, func() string)
		ignores map[Kind]string
	}{
		{"Metrics", func() (Observer, func() string) {
			reg := NewRegistry()
			return NewMetrics(reg), func() string {
				var b strings.Builder
				if err := reg.WritePrometheus(&b); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
		}, nil},
		{"QueryTrace", func() (Observer, func() string) {
			tr := NewQueryTrace()
			return tr, func() string {
				out, err := json.Marshal(tr.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				return string(out)
			}
		}, map[Kind]string{
			RequestShed: "a shed request never executes, so no per-query trace exists to record it",
		}},
	}
	for k, ev := range sampleEvents {
		if ev.Kind != Kind(k) {
			t.Fatalf("sampleEvents[%d] holds kind %d: add a sample for the new Kind", k, ev.Kind)
		}
	}
	for _, sink := range sinks {
		for _, ev := range sampleEvents {
			o, render := sink.fresh()
			before := render()
			o.Observe(ev)
			changed := render() != before
			_, ignored := sink.ignores[ev.Kind]
			switch {
			case !changed && !ignored:
				t.Errorf("%s drops kind %d (%+v): handle it or add it to the ignore list with a reason", sink.name, ev.Kind, ev)
			case changed && ignored:
				t.Errorf("%s reacts to kind %d but lists it as ignored", sink.name, ev.Kind)
			}
		}
	}
}

// TestNopZeroAlloc pins the zero-overhead contract of event delivery: no
// sink allocates on any kind — the no-op default, the registry observer,
// a trace whose slices have grown past what the run appends, and the
// fan-out over both.
func TestNopZeroAlloc(t *testing.T) {
	const runs = 100
	warmTrace := func() *QueryTrace {
		tr := NewQueryTrace()
		for i := 0; i < 4*runs; i++ {
			for _, ev := range sampleEvents {
				tr.Observe(ev)
			}
		}
		return tr
	}
	for _, sink := range []struct {
		name string
		o    Observer
	}{
		{"Nop", Nop{}},
		{"Metrics", NewMetrics(NewRegistry())},
		{"QueryTrace", warmTrace()},
		{"Multi", Multi(NewMetrics(NewRegistry()), warmTrace())},
	} {
		for _, ev := range sampleEvents {
			if avg := testing.AllocsPerRun(runs, func() { sink.o.Observe(ev) }); avg != 0 {
				t.Errorf("%s allocates %.1f per kind-%d event, want 0", sink.name, avg, ev.Kind)
			}
		}
	}
}

func TestMulti(t *testing.T) {
	if _, ok := Multi().(Nop); !ok {
		t.Error("Multi() must collapse to Nop")
	}
	a, b := NewQueryTrace(), NewQueryTrace()
	if Multi(nil, a, nil) != Observer(a) {
		t.Error("Multi with one non-nil observer must return it directly")
	}
	m := Multi(a, b)
	m.Observe(Event{Kind: AccessDone, Access: Sorted, Pred: 0, N: 1, Value: 2})
	m.Observe(Event{Kind: LoopIteration, N: 1, Value: 4, Pred: 4})
	for i, tr := range []*QueryTrace{a, b} {
		s := tr.Snapshot()
		if s.CostUnits != 2 || s.Iterations != 1 || s.CandidatesHighWater != 4 {
			t.Errorf("observer %d missed fanned-out events: %+v", i, s)
		}
	}
}

func TestQueryTraceSnapshot(t *testing.T) {
	tr := NewQueryTrace()
	for _, ev := range []Event{
		{Kind: PhaseDone, Label: string(PhaseParse), Value: 0.002},
		{Kind: AccessDone, Access: Sorted, Pred: 0, N: 1, Value: 1},
		{Kind: AccessDone, Access: Sorted, Pred: 2, N: 1, Value: 1}, // pred 2 forces slice growth past pred 1
		{Kind: AccessDone, Access: Random, Pred: 1, N: 1, Value: 10},
		{Kind: AccessDenied, Access: Random, Pred: 0, Code: uint8(DenyBudget)},
		{Kind: AccessDenied, Access: Sorted, Pred: 0, Code: uint8(DenyExhausted)},
		{Kind: EstimatorEval, Code: Miss},
		{Kind: EstimatorEval, Code: Hit},
		{Kind: InflightChange, Value: +3},
		{Kind: InflightChange, Value: -1},
		{Kind: InflightChange, Value: +1},
		{Kind: DispatchStall},
		{Kind: SourceRetry, Value: 0.05},
		{Kind: SourceFailure},
		{Kind: PlanCache, Code: Miss},
		{Kind: BreakerTransition, Access: Random, Pred: 1, Code: Transition(BreakerOpen, BreakerHalfOpen)},
	} {
		tr.Observe(ev)
	}

	s := tr.Snapshot()
	if len(s.Phases) != 1 || s.Phases[0].Phase != PhaseParse {
		t.Errorf("phases = %+v", s.Phases)
	}
	at := func(s []int, i int) int {
		if i < len(s) {
			return s[i]
		}
		return 0 // per-predicate slices grow lazily; missing tail means zero
	}
	wantSorted, wantRandom := []int{1, 0, 1}, []int{0, 1, 0}
	for i := range wantSorted {
		if at(s.SortedAccesses, i) != wantSorted[i] || at(s.RandomAccesses, i) != wantRandom[i] {
			t.Fatalf("access counts = %v/%v, want %v/%v",
				s.SortedAccesses, s.RandomAccesses, wantSorted, wantRandom)
		}
	}
	if s.CostUnits != 12 {
		t.Errorf("cost = %g, want 12", s.CostUnits)
	}
	if s.Denied["budget"] != 1 || s.Denied["exhausted"] != 1 {
		t.Errorf("denied = %v", s.Denied)
	}
	if !s.BudgetExhausted {
		t.Error("budget denial must set BudgetExhausted")
	}
	if s.EstimatorEvals != 1 || s.EstimatorMemoHits != 1 {
		t.Errorf("estimator counts = %d/%d", s.EstimatorEvals, s.EstimatorMemoHits)
	}
	if s.InflightHighWater != 3 || s.DispatchStalls != 1 {
		t.Errorf("inflight HW = %d, stalls = %d", s.InflightHighWater, s.DispatchStalls)
	}
	if s.SourceRetries != 1 || s.SourceFailures != 1 || s.BackoffSeconds != 0.05 {
		t.Errorf("source stats = %+v", s)
	}
	if s.PlanCacheHit == nil || *s.PlanCacheHit {
		t.Errorf("plan cache = %v, want miss recorded", s.PlanCacheHit)
	}
	want := BreakerEvent{Kind: Random, KindName: "random", Pred: 1, From: "open", To: "half_open"}
	if len(s.BreakerTransitions) != 1 || s.BreakerTransitions[0] != want {
		t.Errorf("breaker transitions = %+v, want [%+v]", s.BreakerTransitions, want)
	}

	// Snapshots are copies: later events must not mutate an earlier one.
	tr.Observe(Event{Kind: AccessDone, Access: Sorted, Pred: 0, N: 1, Value: 1})
	tr.Observe(Event{Kind: PhaseDone, Label: string(PhaseExecute), Value: 0.001})
	if s.SortedAccesses[0] != 1 || len(s.Phases) != 1 {
		t.Error("snapshot aliases live trace state")
	}
	if tr.Snapshot().PlanCacheHit == s.PlanCacheHit {
		t.Error("snapshots share the PlanCacheHit pointer")
	}
}
