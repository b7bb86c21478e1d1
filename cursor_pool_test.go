package topk

// Pool-discipline guard for cursors: a cursor borrows the engine's pooled
// query state (session + framework scratch) for its whole life and Close
// returns it. These tests pin the two failure modes that would silently
// erode the serve path: per-cycle allocation creep (state not actually
// reused) and pool poisoning (a retired cursor leaving stale state that a
// later run observes, or cycles growing the heap without bound).

import (
	"reflect"
	"testing"
)

// TestCursorAllocGate bounds the steady-state cost of a full
// open/page/close cycle on pooled state. Everything the execution assembles
// lives in the pooled query state, so the cycle allocates what its caller
// keeps: the facade Cursor, the Page, its items and its ledger (4 here,
// under a fixed plan with none to copy); the gate is that + 3, as
// BENCH_perf.json's are.
func TestCursorAllocGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate needs steady-state measurement on a pool that keeps what it is given")
	}
	ds := mustGenerateDataset(t, "uniform", 100, 2, 5)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		cur, err := eng.Open(Query{F: Min(), K: 4}, WithNC([]float64{0.5, 0.5}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(4); err != nil {
			t.Fatal(err)
		}
		cur.Close()
	}
	cycle() // warm the pool to steady state
	if got := testing.AllocsPerRun(100, cycle); got > 7 {
		t.Errorf("open/page/close cycle allocates %.1f/op, gate is 7", got)
	}
}

// TestCursorPoolCycles churns ten thousand open/page/close cycles through
// one engine and then proves the pool is as good as new: the per-cycle
// allocation count has not grown (state kept coming back), and a fresh
// run on the recycled state is byte-identical to one on a cold engine
// (nothing stale survived the churn).
func TestCursorPoolCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("pool churn is a long steady-state test")
	}
	ds := mustGenerateDataset(t, "uniform", 60, 2, 9)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	fixed := WithNC([]float64{0.5, 0.5}, nil)
	cycle := func() {
		cur, err := eng.Open(Query{F: Min(), K: 2}, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(2); err != nil {
			t.Fatal(err)
		}
		cur.Close()
	}
	cycle()
	before := testing.AllocsPerRun(50, cycle)
	for i := 0; i < 10_000; i++ {
		cycle()
	}
	after := testing.AllocsPerRun(50, cycle)
	// +10 absorbs measurement jitter (AllocsPerRun wobbles by a few
	// counts on a loaded machine, more under -race); real pool leakage
	// re-allocates the table, queue, and session every cycle and costs
	// hundreds per op, far past any jitter.
	if after > before+10 {
		t.Errorf("per-cycle allocations grew after 10k cycles: %.1f -> %.1f", before, after)
	}

	// Nothing stale: a run on the churned engine equals a cold engine's.
	churned, err := eng.Run(Query{F: Min(), K: 10}, fixed)
	if err != nil {
		t.Fatal(err)
	}
	coldEng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldEng.Run(Query{F: Min(), K: 10}, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(churned.Items, cold.Items) || !reflect.DeepEqual(churned.Ledger, cold.Ledger) {
		t.Error("pooled state carried stale results across 10k cursor cycles")
	}
}

// TestCursorAbandonedDoesNotPoisonPool drops cursors without Close (the
// client that never comes back, before the service reaper existed). The
// pool must simply miss that state — later runs allocate fresh and stay
// correct — rather than double-free or corrupt.
func TestCursorAbandonedDoesNotPoisonPool(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 60, 2, 9)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	fixed := WithNC([]float64{0.5, 0.5}, nil)
	want, err := eng.Run(Query{F: Min(), K: 8}, fixed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		cur, err := eng.Open(Query{F: Min(), K: 2}, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(1); err != nil {
			t.Fatal(err)
		}
		// abandoned: no Close
		_ = cur
	}
	got, err := eng.Run(Query{F: Min(), K: 8}, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Items, want.Items) || !reflect.DeepEqual(got.Ledger, want.Ledger) {
		t.Error("abandoned cursors corrupted later runs")
	}
}
