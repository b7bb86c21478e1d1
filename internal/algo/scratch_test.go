package algo

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// TestRunScratchMatchesFresh proves scratch reuse is invisible: running NC
// repeatedly through one Scratch yields byte-identical answers and ledgers
// to fresh-state runs, including across k and scoring-function changes.
func TestRunScratchMatchesFresh(t *testing.T) {
	ds := datatest.MustGenerate(data.Correlated, 200, 2, 9)
	scn := access.Uniform(2, 1, 5)
	nc := &NC{Sel: MustNewSRG([]float64{0.4, 0.6}, nil)}
	run := func(sc *Scratch, f score.Func, k int) *Result {
		t.Helper()
		sess, err := access.NewSession(access.DatasetBackend{DS: ds}, scn)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(f, k, sess)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nc.RunScratch(p, sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	sc := &Scratch{}
	for _, cfg := range []struct {
		f score.Func
		k int
	}{
		{score.Avg(), 5},
		{score.Avg(), 5}, // repeat: warm scratch, same query
		{score.Min(), 3}, // swap function and k through the same scratch
		{score.Avg(), 10},
	} {
		got := run(sc, cfg.f, cfg.k)
		want := run(nil, cfg.f, cfg.k)
		if len(got.Items) != len(want.Items) {
			t.Fatalf("k=%d %s: scratch run returned %d items, fresh %d",
				cfg.k, cfg.f.Name(), len(got.Items), len(want.Items))
		}
		for i := range got.Items {
			if got.Items[i] != want.Items[i] {
				t.Errorf("k=%d %s item %d: scratch %+v fresh %+v",
					cfg.k, cfg.f.Name(), i, got.Items[i], want.Items[i])
			}
		}
		if got.Ledger.TotalCost != want.Ledger.TotalCost {
			t.Errorf("k=%d %s: scratch cost %v, fresh %v",
				cfg.k, cfg.f.Name(), got.Ledger.TotalCost, want.Ledger.TotalCost)
		}
	}
}

// TestRunScratchShapeChange checks a pooled scratch survives moving to a
// dataset of a different size (the table is rebuilt, not corrupted).
func TestRunScratchShapeChange(t *testing.T) {
	sc := &Scratch{}
	nc := &NC{Sel: MustNewSRG([]float64{0.5, 0.5}, nil)}
	for _, n := range []int{50, 200, 20} {
		ds := datatest.MustGenerate(data.Uniform, n, 2, 4)
		sess, err := access.NewSession(access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(score.Avg(), 3, sess)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nc.RunScratch(p, sc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res.Items) != 3 {
			t.Fatalf("n=%d: got %d items, want 3", n, len(res.Items))
		}
	}
}

// TestRearmedKitMatchesFresh runs one selector, session, problem and
// scratch through a sequence of (H, Omega, F, k) simulation-style runs —
// Reconfigure, Reset, Rearm, Open, Skip — and checks each bills exactly
// what a freshly built NC run of the same query does, that Skip builds no
// page yet counts its answers, and that rejected configurations and
// queries leave the kit as it was.
func TestRearmedKitMatchesFresh(t *testing.T) {
	ds := datatest.MustGenerate(data.Correlated, 120, 3, 3)
	scn := access.Uniform(3, 1, 4)
	fresh := func(h []float64, omega []int, f score.Func, k int) *Result {
		t.Helper()
		sess, err := access.NewSession(access.DatasetBackend{DS: ds}, scn)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(f, k, sess)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&NC{Sel: MustNewSRG(h, omega)}).Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	sess, err := access.NewSession(access.DatasetBackend{DS: ds}, scn)
	if err != nil {
		t.Fatal(err)
	}
	var (
		srg  SRG
		sc   Scratch
		prob = Problem{Session: sess}
		nc   = NC{Sel: &srg}
	)
	for _, c := range []struct {
		h     []float64
		omega []int
		f     score.Func
		k     int
	}{
		{[]float64{0.5, 0.5, 0.5}, []int{2, 0, 1}, score.Avg(), 5},
		{[]float64{0, 1, 1}, nil, score.Min(), 1},
		{[]float64{0.9, 0.2, 1}, []int{1, 2, 0}, score.Weighted(0.3, 0.25, 0.45), 12},
	} {
		if err := srg.Reconfigure(c.h, c.omega); err != nil {
			t.Fatal(err)
		}
		// Rejections in between must not disturb the configuration.
		for _, bad := range []struct {
			h     []float64
			omega []int
		}{{c.h, []int{0, 0, 1}}, {[]float64{0.5, 1.5, 0.5}, c.omega}, {c.h, []int{0, 1}}, {nil, nil}} {
			if err := srg.Reconfigure(bad.h, bad.omega); err == nil {
				t.Fatalf("Reconfigure(%v, %v) should fail", bad.h, bad.omega)
			}
		}
		if want := MustNewSRG(c.h, c.omega); !reflect.DeepEqual(&srg, want) {
			t.Fatalf("reconfigured selector %+v differs from NewSRG's %+v", srg, *want)
		}
		if err := sess.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := prob.Rearm(c.f, c.k); err != nil {
			t.Fatal(err)
		}
		if err := prob.Rearm(score.Weighted(1, 2), c.k); err == nil {
			t.Fatal("Rearm with a function of the wrong arity should fail")
		}
		if err := prob.Rearm(c.f, 0); err == nil {
			t.Fatal("Rearm with k=0 should fail")
		}
		cur, err := nc.Open(&prob, &sc)
		if err != nil {
			t.Fatal(err)
		}
		n, err := cur.Skip(c.k)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh(c.h, c.omega, c.f, c.k)
		if n != len(want.Items) || cur.Emitted() != n {
			t.Errorf("%s k=%d: Skip proved %d answers (Emitted %d), a fresh run %d", c.f.Name(), c.k, n, cur.Emitted(), len(want.Items))
		}
		if got := sess.Ledger(); !reflect.DeepEqual(got, want.Ledger) || sess.TotalCost() != want.Cost() {
			t.Errorf("%s k=%d: re-armed run billed %+v, a fresh run %+v", c.f.Name(), c.k, got, want.Ledger)
		}
		if err := prob.Begin(); err == nil {
			t.Error("a run must leave its problem consumed until the next Rearm")
		}
	}
}
