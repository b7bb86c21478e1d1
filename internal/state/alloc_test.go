package state

import (
	"testing"

	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// The score-state layer is the per-access bookkeeping every algorithm
// pays; after the typed-heap rewrite its hot operations must stay
// allocation-free on warm structures. testing.AllocsPerRun guards keep
// interface boxing or map churn from creeping back in.

func TestQueueOpsZeroAlloc(t *testing.T) {
	n, m := 512, 3
	ds := datatest.MustGenerate(data.Uniform, n, m, 11)
	tab := MustNewTable(n, m, score.Avg())
	for i := 0; i < m; i++ {
		for r := 0; r < n; r++ {
			obj, s := ds.SortedAt(i, r)
			tab.ObserveSorted(i, obj, s)
		}
	}
	q := NewQueue(tab, false)
	// Warm the heap and scratch to their high-water marks.
	_ = q.TopN(n)

	if allocs := testing.AllocsPerRun(100, func() {
		e, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained")
		}
		q.Add(e.ID)
	}); allocs != 0 {
		t.Errorf("pop+push on a warm queue allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := q.Peek(); !ok { // Peek revalidates the top
			t.Fatal("queue drained")
		}
	}); allocs != 0 {
		t.Errorf("peek/revalidate allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got := q.TopN(8); len(got) != 8 {
			t.Fatalf("TopN = %d entries", len(got))
		}
	}); allocs != 0 {
		t.Errorf("TopN on a warm queue allocates %.1f/op, want 0", allocs)
	}
}

func TestQueueRevalidationZeroAlloc(t *testing.T) {
	// Lazy revalidation is the churn path: stale tops are re-sifted in
	// place, never reboxed through an interface.
	n := 256
	ds := datatest.MustGenerate(data.Uniform, n, 2, 5)
	tab := MustNewTable(n, 2, score.Avg())
	q := NewQueue(tab, false)
	probed := 0
	if allocs := testing.AllocsPerRun(100, func() {
		// Each probe staleness-invalidates the queue top's cached bound.
		u := probed % n
		if !tab.Known(u, 0) {
			tab.ObserveRandom(0, u, ds.Score(u, 0))
		}
		probed++
		if _, ok := q.Peek(); !ok {
			t.Fatal("queue drained")
		}
	}); allocs != 0 {
		t.Errorf("revalidation after probes allocates %.1f/op, want 0", allocs)
	}
}

func TestTableObserveZeroAlloc(t *testing.T) {
	n, m := 512, 2
	ds := datatest.MustGenerate(data.Uniform, n, m, 3)
	tab := MustNewTable(n, m, score.Avg())
	rank, probe := 0, 0
	if allocs := testing.AllocsPerRun(100, func() {
		obj, s := ds.SortedAt(0, rank%n)
		rank++
		tab.ObserveSorted(0, obj, s)
	}); allocs != 0 {
		t.Errorf("ObserveSorted allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		u := probe % n
		probe++
		tab.ObserveRandom(1, u, ds.Score(u, 1))
	}); allocs != 0 {
		t.Errorf("ObserveRandom allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = tab.Upper(7)
		_ = tab.Lower(7)
		_ = tab.UnseenUpper()
	}); allocs != 0 {
		t.Errorf("bound computation allocates %.1f/op, want 0", allocs)
	}
}

func TestTableResetMatchesFresh(t *testing.T) {
	n, m := 64, 2
	ds := datatest.MustGenerate(data.Gaussian, n, m, 8)
	used := MustNewTable(n, m, score.Min())
	for r := 0; r < n/2; r++ {
		obj, s := ds.SortedAt(0, r)
		used.ObserveSorted(0, obj, s)
	}
	used.ObserveRandom(1, 3, ds.Score(3, 1))
	if err := used.Reset(score.Avg()); err != nil {
		t.Fatal(err)
	}
	fresh := MustNewTable(n, m, score.Avg())
	for u := 0; u < n; u++ {
		if used.Upper(u) != fresh.Upper(u) || used.Lower(u) != fresh.Lower(u) {
			t.Fatalf("object %d bounds diverge after Reset", u)
		}
		if used.Seen(u) || used.KnownCount(u) != 0 {
			t.Fatalf("object %d retains state after Reset", u)
		}
	}
	for i := 0; i < m; i++ {
		if used.LastSeen(i) != 1 || used.Depth(i) != 0 {
			t.Fatalf("predicate %d retains state after Reset", i)
		}
	}
	if used.SeenCount() != 0 || used.AllSeen() {
		t.Fatal("seen bookkeeping retained after Reset")
	}
	if used.Func().Name() != "avg" {
		t.Fatalf("Reset should swap the scoring function, got %s", used.Func().Name())
	}
	if err := used.Reset(score.Weighted(1, 2, 3)); err == nil {
		t.Fatal("Reset with an arity-mismatched function should fail")
	}
}

// TestTableRearmAcrossWidths: one table re-armed between 3 and 2
// predicates answers every bound exactly like a fresh table of each width
// fed the same observations, and once it has been as wide as it gets,
// switching widths allocates nothing.
func TestTableRearmAcrossWidths(t *testing.T) {
	const n = 10000 // touching half of it outgrows the first 4,096 slots at both widths
	ds := datatest.MustGenerate(data.Uniform, n, 3, 9)
	feed := func(tab *Table, m int) {
		for r := 0; r < n/2; r++ {
			for i := 0; i < m; i++ {
				obj, s := ds.SortedAt(i, r)
				tab.ObserveSorted(i, obj, s)
			}
		}
		tab.ObserveRandom(m-1, 7, ds.Score(7, m-1))
	}
	used := MustNewTable(n, 3, score.Avg())
	for _, m := range []int{3, 2, 3, 2} {
		if err := used.Rearm(m, score.Min()); err != nil {
			t.Fatal(err)
		}
		feed(used, m)
		fresh := MustNewTable(n, m, score.Min())
		feed(fresh, m)
		for u := 0; u < n; u++ {
			if used.Upper(u) != fresh.Upper(u) || used.Lower(u) != fresh.Lower(u) || used.KnownCount(u) != fresh.KnownCount(u) {
				t.Fatalf("m=%d object %d: re-armed table diverges from a fresh one", m, u)
			}
		}
		if used.M() != m || used.UnseenUpper() != fresh.UnseenUpper() || used.SeenCount() != fresh.SeenCount() {
			t.Fatalf("m=%d: shape or seen bookkeeping diverges", m)
		}
	}
	if err := used.Rearm(2, score.Weighted(1, 2, 3)); err == nil {
		t.Fatal("Rearm with an arity-mismatched function should fail")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		_ = used.Rearm(3, score.Min())
		_ = used.Rearm(2, score.Min())
	}); allocs != 0 {
		t.Errorf("switching widths allocates %.1f/op, want 0", allocs)
	}
}

func TestQueueResetMatchesFresh(t *testing.T) {
	tab := MustNewTable(8, 1, score.Min())
	q := NewQueue(tab, false)
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	q.Reset(tab, true)
	if q.Len() != 1 {
		t.Fatalf("reset NWG queue len = %d, want 1", q.Len())
	}
	if e, ok := q.Peek(); !ok || e.ID != UnseenID {
		t.Fatalf("reset NWG queue top = %+v, %v", e, ok)
	}
	q.Reset(tab, false)
	if q.Len() != 8 || q.Contains(UnseenID) {
		t.Fatalf("reset open queue len = %d (unseen=%v)", q.Len(), q.Contains(UnseenID))
	}
}
