package algo

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

func openCursor(t *testing.T, ds *data.Dataset, scn access.Scenario, f score.Func, eps float64, opts ...access.Option) *Cursor {
	t.Helper()
	sess := mustSession(t, ds, scn, opts...)
	prob, err := NewProblem(f, 1, sess)
	if err != nil {
		t.Fatal(err)
	}
	nc := &NC{Sel: MustNewSRG(midDepths(ds.M()), nil), Epsilon: eps}
	cur, err := nc.Open(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

func midDepths(m int) []float64 {
	h := make([]float64, m)
	for i := range h {
		h[i] = 0.5
	}
	return h
}

func TestCursorMatchesFullRanking(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 60, 2, 71)
	f := score.Avg()
	cur := openCursor(t, ds, access.Uniform(2, 1, 1), f, 0)
	oracle := ds.TopK(f.Eval, ds.N())
	for i, want := range oracle {
		page, err := cur.Next(1)
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		if len(page.Items) != 1 {
			t.Fatalf("rank %d: page of %d items", i, len(page.Items))
		}
		it := page.Items[0]
		if math.Abs(it.Score-want.Score) > 1e-9 {
			t.Fatalf("rank %d: got %g want %g", i, it.Score, want.Score)
		}
		if !it.Exact {
			t.Fatalf("rank %d not exact", i)
		}
	}
	page, err := cur.Next(1)
	if err != nil || len(page.Items) != 0 {
		t.Errorf("drained cursor should return an empty page, got %d items, %v", len(page.Items), err)
	}
	if !cur.Exhausted() {
		t.Error("cursor should report Exhausted after emitting every object")
	}
	// Exhaustion is sticky and access-free.
	before := cur.Ledger().TotalAccesses()
	if page, err = cur.Next(3); err != nil || len(page.Items) != 0 {
		t.Errorf("exhausted cursor page: %d items, %v", len(page.Items), err)
	}
	if cur.Ledger().TotalAccesses() != before {
		t.Error("exhausted Next performed accesses")
	}
}

func TestCursorIncrementalCostsNoMoreThanOneShot(t *testing.T) {
	ds := datatest.MustGenerate(data.Gaussian, 300, 2, 72)
	f := score.Min()
	scn := access.Uniform(2, 1, 3)

	// One-shot top-10 via NC.Run.
	alg, _ := NewNC(midDepths(2), nil)
	oneShot, _ := mustRun(t, alg, ds, scn, f, 10)

	// Paged: 5 now, 5 later — same answers, same total cost and ledger
	// (state is reused, nothing re-paid).
	cur := openCursor(t, ds, scn, f, 0)
	first, err := cur.Next(5)
	if err != nil {
		t.Fatal(err)
	}
	costAfter5 := first.Ledger.TotalCost
	second, err := cur.Next(5)
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]Item(nil), first.Items...), second.Items...)
	if len(got) != 10 {
		t.Fatalf("paged %d+%d items", len(first.Items), len(second.Items))
	}
	if !reflect.DeepEqual(got, oneShot.Items) {
		t.Fatalf("paged items diverge from one-shot:\n%v\n%v", got, oneShot.Items)
	}
	if !reflect.DeepEqual(second.Ledger, oneShot.Ledger) {
		t.Errorf("paged ledger diverges from one-shot:\n%+v\n%+v", second.Ledger, oneShot.Ledger)
	}
	if costAfter5 >= second.Ledger.TotalCost {
		t.Errorf("the second page should have cost something: %v then %v", costAfter5, second.Ledger.TotalCost)
	}
	if cur.Emitted() != 10 {
		t.Errorf("Emitted = %d, want 10", cur.Emitted())
	}
}

func TestCursorApproximate(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 300, 3, 73)
	scn := access.MatrixCell(3, access.Cheap, access.Impossible, 10)
	exact := openCursor(t, ds, scn, score.Avg(), 0)
	ep, err := exact.Next(10)
	if err != nil {
		t.Fatal(err)
	}
	approx := openCursor(t, ds, scn, score.Avg(), 0.5)
	ap, err := approx.Next(10)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Ledger.TotalCost > ep.Ledger.TotalCost {
		t.Errorf("approximate cursor cost %v exceeds exact %v", ap.Ledger.TotalCost, ep.Ledger.TotalCost)
	}
	for _, it := range ap.Items {
		truth := score.Avg().Eval(ds.Scores(it.Obj))
		if it.Score > truth+1e-9 {
			t.Fatalf("reported %g overstates truth %g", it.Score, truth)
		}
	}
}

func TestCursorBudgetTruncatesAndDrains(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 200, 2, 74)
	cur := openCursor(t, ds, access.Uniform(2, 1, 1), score.Avg(), 0, access.WithBudget(10*access.UnitCost))
	page, err := cur.Next(50)
	if err != nil {
		t.Fatal(err)
	}
	if !page.Truncated {
		t.Fatal("budget exhaustion should truncate the page")
	}
	if page.Ledger.TotalCost > 10*access.UnitCost {
		t.Errorf("overspent: %v", page.Ledger.TotalCost)
	}
	if len(page.Items) == 0 {
		t.Error("anytime fill should still produce best-effort items")
	}
	// Truncation is sticky: further pages drain candidates access-free.
	before := cur.Ledger().TotalAccesses()
	next, err := cur.Next(20)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Truncated {
		t.Error("truncation should be sticky across pages")
	}
	if cur.Ledger().TotalAccesses() != before {
		t.Error("post-truncation paging performed accesses")
	}
}

// TestCursorTruncatedPagingMatchesFreshDrain is the anytime half of the
// resume contract: pages produced after a budget truncation concatenate to
// exactly the anytime fill a fresh run with the larger K and the same
// budget would produce.
func TestCursorTruncatedPagingMatchesFreshDrain(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 120, 2, 75)
	scn := access.Uniform(2, 1, 1)
	budget := access.WithBudget(8 * access.UnitCost)

	alg, _ := NewNC(midDepths(2), nil)
	fresh, _ := mustRun(t, alg, ds, scn, score.Avg(), 30, budget)
	if !fresh.Truncated {
		t.Fatal("test needs a truncating budget")
	}

	cur := openCursor(t, ds, scn, score.Avg(), 0, budget)
	var got []Item
	for _, d := range []int{7, 0, 11, 12} {
		page, err := cur.Next(d)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Items...)
	}
	if !reflect.DeepEqual(got, fresh.Items) {
		t.Fatalf("truncated pages diverge from fresh drain:\n%v\n%v", got, fresh.Items)
	}
	if !reflect.DeepEqual(cur.Ledger(), fresh.Ledger) {
		t.Errorf("truncated paging ledger diverges from fresh run")
	}
}

func TestCursorNextUntil(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 150, 2, 76)
	f := score.Avg()
	scn := access.Uniform(2, 1, 1)
	oracle := ds.TopK(f.Eval, ds.N())
	tau := oracle[9].Score // exactly 10 objects score >= tau

	cur := openCursor(t, ds, scn, f, 0)
	page := new(Result)
	if err := cur.PageUntil(page, tau); err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 10 {
		t.Fatalf("PageUntil(%g) returned %d items, want 10", tau, len(page.Items))
	}
	for i, it := range page.Items {
		if it.Obj != oracle[i].Obj {
			t.Fatalf("rank %d: got %d want %d", i, it.Obj, oracle[i].Obj)
		}
		if it.Score < tau {
			t.Fatalf("rank %d: score %g below tau %g", i, it.Score, tau)
		}
	}
	if cur.Exhausted() {
		t.Error("a tau suspension is not exhaustion")
	}
	// The boundary candidate was not consumed: ordinal paging resumes
	// exactly at rank 10, and a lower tau deepens further.
	deeper, err := cur.Next(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range deeper.Items {
		if it.Obj != oracle[10+i].Obj {
			t.Fatalf("post-tau rank %d: got %d want %d", 10+i, it.Obj, oracle[10+i].Obj)
		}
	}
	wider := new(Result)
	if err := cur.PageUntil(wider, oracle[19].Score); err != nil {
		t.Fatal(err)
	}
	if got := len(deeper.Items) + len(wider.Items) + 10; got != 20 {
		t.Fatalf("tau deepening reached %d total items, want 20", got)
	}
}

// TestCursorNextUntilMatchesOrdinal checks the two paging modes agree: the
// score-range page equals the ordinal prefix of the same rank depth, with
// the same ledger.
func TestCursorNextUntilMatchesOrdinal(t *testing.T) {
	ds := datatest.MustGenerate(data.Gaussian, 200, 2, 77)
	f := score.Min()
	scn := access.Uniform(2, 1, 2)
	oracle := ds.TopK(f.Eval, ds.N())
	tau := oracle[14].Score

	byScore := openCursor(t, ds, scn, f, 0)
	sp := new(Result)
	if err := byScore.PageUntil(sp, tau); err != nil {
		t.Fatal(err)
	}
	byRank := openCursor(t, ds, scn, f, 0)
	rp, err := byRank.Next(len(sp.Items))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Items, rp.Items) {
		t.Fatalf("score-range page diverges from ordinal page:\n%v\n%v", sp.Items, rp.Items)
	}
	if !reflect.DeepEqual(byScore.Ledger(), byRank.Ledger()) {
		t.Error("score-range ledger diverges from ordinal ledger at equal depth")
	}
}

func TestCursorCloseAndValidation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 1)
	sess := mustSession(t, ds, access.Uniform(2, 1, 1))
	prob, _ := NewProblem(score.Avg(), 1, sess)
	if _, err := (&NC{Sel: nil}).Open(prob, nil); err == nil {
		t.Error("nil selector should fail")
	}
	if _, err := (&NC{Sel: MustNewSRG(midDepths(2), nil), Epsilon: -1}).Open(prob, nil); err == nil {
		t.Error("negative epsilon should fail")
	}
	cur, err := (&NC{Sel: MustNewSRG(midDepths(2), nil)}).Open(prob, nil)
	if err != nil {
		t.Fatalf("valid cursor rejected: %v", err)
	}
	// The problem is consumed by the cursor.
	if _, err := (TA{}).Run(prob); err == nil {
		t.Error("consumed problem should refuse other algorithms")
	}
	if _, err := cur.Next(-1); err == nil {
		t.Error("negative page size should fail")
	}
	cur.Close()
	cur.Close() // idempotent
	if _, err := cur.Next(1); !errors.Is(err, ErrCursorClosed) {
		t.Errorf("Next after Close = %v, want ErrCursorClosed", err)
	}
	if err := cur.PageUntil(new(Result), 0); !errors.Is(err, ErrCursorClosed) {
		t.Errorf("PageUntil after Close = %v, want ErrCursorClosed", err)
	}
}

func TestTACursorMatchesRun(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 150, 3, 81)
	f := score.Avg()
	scn := access.Uniform(3, 1, 1)

	fresh, _ := mustRun(t, TA{}, ds, scn, f, 20)
	sess := mustSession(t, ds, scn)
	prob, _ := NewProblem(f, 1, sess)
	cur, err := TA{}.Open(prob)
	if err != nil {
		t.Fatal(err)
	}
	var got []Item
	for _, d := range []int{6, 0, 1, 13} {
		page, err := cur.Next(d)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Items...)
	}
	if !reflect.DeepEqual(got, fresh.Items) {
		t.Fatalf("TA pages diverge from one-shot:\n%v\n%v", got, fresh.Items)
	}
	if !reflect.DeepEqual(cur.Ledger(), fresh.Ledger) {
		t.Errorf("TA paged ledger diverges from one-shot")
	}
	if cur.Emitted() != 20 {
		t.Errorf("Emitted = %d, want 20", cur.Emitted())
	}
	cur.Close()
	if _, err := cur.Next(1); !errors.Is(err, ErrCursorClosed) {
		t.Errorf("Next after Close = %v, want ErrCursorClosed", err)
	}
}

func TestTACursorExhaustion(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 25, 2, 82)
	sess := mustSession(t, ds, access.Uniform(2, 1, 1))
	prob, _ := NewProblem(score.Avg(), 1, sess)
	cur, err := TA{}.Open(prob)
	if err != nil {
		t.Fatal(err)
	}
	page, err := cur.Next(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 25 {
		t.Fatalf("over-deep page returned %d items, want all 25", len(page.Items))
	}
	if !cur.Exhausted() {
		t.Error("TA cursor should report Exhausted")
	}
	before := cur.Ledger().TotalAccesses()
	page, err = cur.Next(5)
	if err != nil || len(page.Items) != 0 {
		t.Errorf("exhausted TA page: %d items, %v", len(page.Items), err)
	}
	if cur.Ledger().TotalAccesses() != before {
		t.Error("exhausted TA Next performed accesses")
	}
}

// TestMProCursorMatchesRun pins MPro's cursor to its one-shot run — the
// unification claim (MPro = NC + derived SR/G selector) extended to
// suspension.
func TestMProCursorMatchesRun(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 120, 3, 83)
	f := score.Min()
	scn := access.MatrixCell(3, access.Cheap, access.Expensive, 5)

	fresh, _ := mustRun(t, MPro{}, ds, scn, f, 12)
	sess := mustSession(t, ds, scn)
	prob, _ := NewProblem(f, 1, sess)
	cur, err := MPro{}.Open(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []Item
	for _, d := range []int{4, 4, 4} {
		page, err := cur.Next(d)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Items...)
	}
	if !reflect.DeepEqual(got, fresh.Items) {
		t.Fatalf("MPro pages diverge from one-shot:\n%v\n%v", got, fresh.Items)
	}
	if !reflect.DeepEqual(cur.Ledger(), fresh.Ledger) {
		t.Errorf("MPro paged ledger diverges from one-shot")
	}
}
