//go:build !race

package obs

import "testing"

// TestQueryTraceGrowsInOneStep: a fresh trace fed a cursor's life — the
// highest predicate's accesses first, then the lower ones, and six phases
// (parse, plan, optimize, three pages' execute) — allocates itself, each
// per-predicate slice once and the phase list once. (The race detector
// instruments the one-step growth into a second allocation, so it runs in
// ordinary builds only.)
func TestQueryTraceGrowsInOneStep(t *testing.T) {
	events := []Event{
		{Kind: AccessDone, Access: Sorted, Pred: 2, N: 1, Value: 1},
		{Kind: AccessDone, Access: Sorted, Pred: 0, N: 1, Value: 1},
		{Kind: AccessDone, Access: Sorted, Pred: 1, N: 1, Value: 1},
		{Kind: AccessDone, Access: Random, Pred: 2, N: 1, Value: 1},
		{Kind: AccessDone, Access: Random, Pred: 1, N: 1, Value: 1},
	}
	for _, p := range []Phase{PhaseParse, PhasePlan, PhaseOptimize, PhaseExecute, PhaseExecute, PhaseExecute} {
		events = append(events, Event{Kind: PhaseDone, Label: string(p), Value: 0.001})
	}
	var tr *QueryTrace
	got := testing.AllocsPerRun(100, func() {
		tr = NewQueryTrace()
		for _, ev := range events {
			tr.Observe(ev)
		}
	})
	if got != 4 {
		t.Errorf("%v allocations for a fresh trace's life, want 4: the trace, two per-predicate slices, the phases", got)
	}
	if s := tr.Snapshot(); len(s.SortedAccesses) != 3 || len(s.RandomAccesses) != 3 || len(s.Phases) != 6 {
		t.Errorf("snapshot %v / %v / %d phases", s.SortedAccesses, s.RandomAccesses, len(s.Phases))
	}
}
