package access

import (
	"testing"

	"repro/internal/data"
	"repro/internal/data/datatest"
)

// TestSessionResetMatchesFresh drives a session through a mixed run, resets
// it, and checks that a reset session is observationally identical to a
// freshly constructed one: same accesses, same ledger, same legality.
func TestSessionResetMatchesFresh(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 20, 2, 4)
	scn := Uniform(2, 1, 3)
	run := func(s *Session) Ledger {
		t.Helper()
		for i := 0; i < 5; i++ {
			if _, _, err := s.SortedNext(0); err != nil {
				t.Fatal(err)
			}
		}
		obj, _, err := s.SortedNext(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Random(0, obj); err != nil && !s.Probed(0, obj) {
			t.Fatal(err)
		}
		return s.Ledger()
	}

	pooled, err := NewSession(DatasetBackend{DS: ds}, scn, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	first := run(pooled)
	if len(pooled.Trace()) == 0 {
		t.Fatal("trace should have recorded the first run")
	}
	if err := pooled.Reset(); err != nil {
		t.Fatal(err)
	}
	if pooled.Trace() != nil {
		t.Error("Reset must drop the recorded trace (trace off by default)")
	}
	if l := pooled.Ledger(); l.TotalCost != 0 || l.TotalAccesses() != 0 {
		t.Fatalf("reset ledger not empty: %+v", l)
	}
	if pooled.SeenCount() != 0 || pooled.SortedDepth(0) != 0 {
		t.Fatal("reset session retains cursors or visibility")
	}

	second := run(pooled)
	fresh, err := NewSession(DatasetBackend{DS: ds}, scn)
	if err != nil {
		t.Fatal(err)
	}
	third := run(fresh)
	for i := range second.SortedCounts {
		if second.SortedCounts[i] != third.SortedCounts[i] || second.RandomCounts[i] != third.RandomCounts[i] {
			t.Fatalf("reset run ledger diverges from fresh: %+v vs %+v", second, third)
		}
	}
	if second.TotalCost != third.TotalCost || second.TotalCost != first.TotalCost {
		t.Fatalf("costs diverge: first=%v reset=%v fresh=%v", first.TotalCost, second.TotalCost, third.TotalCost)
	}
}

// TestSessionResetDropsOptions verifies per-run options do not leak across
// Reset: budgets, NWG relaxation, and resilience all revert to defaults.
func TestSessionResetDropsOptions(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 4)
	s, err := NewSession(DatasetBackend{DS: ds}, Uniform(2, 1, 1),
		WithoutNoWildGuesses(), WithBudget(2*UnitCost), WithResilience(&Resilience{}))
	if err != nil {
		t.Fatal(err)
	}
	if s.NoWildGuesses() || !s.FaultTolerant() {
		t.Fatal("options not applied at construction")
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if !s.NoWildGuesses() {
		t.Error("Reset must restore no-wild-guesses")
	}
	if s.FaultTolerant() {
		t.Error("Reset must detach resilience")
	}
	// The old budget must be gone: 5 unit-cost accesses exceed it.
	for i := 0; i < 5; i++ {
		if _, _, err := s.SortedNext(0); err != nil {
			t.Fatalf("budget leaked across Reset: %v", err)
		}
	}
}

// TestResetScenarioMatchesFresh re-prices one session under a second
// scenario and checks it is observationally a session freshly built under
// it — capabilities, costs, empty ledger — while a scenario the backend's
// predicate count rejects leaves the session as it was.
func TestResetScenarioMatchesFresh(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 20, 2, 4)
	s, err := NewSession(DatasetBackend{DS: ds}, Uniform(2, 1, 3), WithBudget(UnitCost))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SortedNext(1); err != nil {
		t.Fatal(err)
	}
	probeOnly := MatrixCell(2, Impossible, Expensive, 10)
	if err := s.ResetScenario(probeOnly); err != nil {
		t.Fatal(err)
	}
	if s.TotalCost() != 0 || s.SeenCount() != 0 || s.Scenario().Name != probeOnly.Name {
		t.Fatalf("re-priced session not fresh: cost %v, seen %d, scenario %q", s.TotalCost(), s.SeenCount(), s.Scenario().Name)
	}
	if _, _, err := s.SortedNext(1); err == nil {
		t.Error("sorted access on p2 should be unsupported under the new scenario")
	}
	obj, _, err := s.SortedNext(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Random(1, obj); err != nil {
		t.Fatal(err)
	}
	if want := UnitCost + CostOf(10); s.TotalCost() != want || s.Ledger().TotalCost != want {
		t.Errorf("billed %v under the new scenario (budget of the old run must be gone), want %v", s.TotalCost(), want)
	}
	if err := s.ResetScenario(Uniform(3, 1, 1)); err == nil {
		t.Fatal("a scenario of the wrong arity should be rejected")
	}
	if s.Scenario().Name != probeOnly.Name || s.TotalCost() == 0 {
		t.Error("a rejected scenario must leave the session as it was")
	}
}
