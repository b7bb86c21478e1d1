package topk

// RunInto and NextInto fill storage the caller owns and reuse its
// capacity. These tests pin that a reused Answer or Page is, after every
// call, exactly what a fresh Run or Next returns — however wide, long or
// planned the previous contents were — that nothing in it is later changed
// by the engine, and that filling it warm allocates nothing.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// intoCall is one drawn query and the options it runs under.
type intoCall struct {
	q    Query
	opts []RunOption
	name string
}

// intoFuncs returns the scoring functions a drawn query picks from at one
// width: weighted sums draw their weights.
func intoFunc(rng *rand.Rand, width int) ScoreFunc {
	switch rng.Intn(4) {
	case 0:
		return Min()
	case 1:
		return Avg()
	case 2:
		return Max()
	}
	w := make([]float64, width)
	for i := range w {
		w[i] = 0.1 + rng.Float64()
	}
	return Weighted(w...)
}

// drawIntoCall draws a query over a random list of width of an m = 3
// engine's columns, with k in 1..50, under the mode: "opt" (the optimizer),
// "fixed" (a random WithNC plan) or "named" (a baseline by name); one call
// in four runs under a budget that truncates most runs.
func drawIntoCall(rng *rand.Rand, width int, mode string) intoCall {
	cols := rng.Perm(3)[:width]
	c := intoCall{q: Query{F: intoFunc(rng, width), K: 1 + rng.Intn(50), Cols: cols}}
	switch mode {
	case "fixed":
		h := make([]float64, width)
		for i := range h {
			h[i] = rng.Float64()
		}
		c.opts = append(c.opts, WithNC(h, rng.Perm(width)))
	case "named":
		names := []string{"TA", "MPro", "NRA", "CA", "FA", "Upper"}
		c.opts = append(c.opts, WithAlgorithm(names[rng.Intn(len(names))]))
	}
	if rng.Intn(4) == 0 {
		c.opts = append(c.opts, WithBudget(float64(5+rng.Intn(200))))
	}
	if mode != "named" && rng.Intn(8) == 0 {
		c.opts = append(c.opts, WithParallel(2))
	}
	c.name = fmt.Sprintf("%s %s k=%d cols=%v opts=%d", mode, c.q.F.Name(), c.q.K, cols, len(c.opts))
	return c
}

// intoSequences returns the call sequences the equivalence tests replay
// into one reused value: a fixed one that steps from wide to narrow and
// from planned to unplanned and back, then random ones.
func intoSequences(rng *rand.Rand) [][]intoCall {
	fixed := []intoCall{
		drawIntoCall(rng, 3, "opt"), drawIntoCall(rng, 1, "fixed"), drawIntoCall(rng, 3, "named"),
		drawIntoCall(rng, 2, "opt"), drawIntoCall(rng, 1, "opt"), drawIntoCall(rng, 3, "fixed"),
		drawIntoCall(rng, 2, "named"), drawIntoCall(rng, 3, "opt"),
	}
	fixed[0].q.K, fixed[1].q.K = 50, 1 // a long list, then a short one
	seqs := [][]intoCall{fixed}
	modes := []string{"opt", "fixed", "named"}
	for s := 0; s < 3; s++ {
		var seq []intoCall
		for i := 0; i < 20; i++ {
			seq = append(seq, drawIntoCall(rng, 1+rng.Intn(3), modes[rng.Intn(len(modes))]))
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// TestRunIntoEquivalence replays call sequences over every Figure-2 cell
// into one reused Answer and requires it, after every call, equal field by
// field to a fresh Run of the same query: items, ledger, plan, Elapsed,
// Truncated, Degraded and Trace. An error must come from both, and leave
// the reused answer as it was. A snapshot of the reused answer must then
// survive a further run on the engine unchanged: nothing it holds points
// into pooled state.
func TestRunIntoEquivalence(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 400, 3, 11)
	rng := rand.New(rand.NewSource(37))
	var narrowed, unplanned, truncated, compared int
	for _, cell := range figure2Cells(3, 10) {
		eng, err := NewEngine(DataBackend(ds), cell.scn, WithPlanCache(NewPlanCache(0)))
		if err != nil {
			t.Fatal(err)
		}
		for si, seq := range intoSequences(rng) {
			var reused Answer
			prevWidth, prevPlanned := 0, false
			for i, c := range seq {
				fresh, ferr := eng.Run(c.q, c.opts...)
				before := deepCopyAnswer(&reused)
				rerr := eng.RunInto(&reused, c.q, c.opts...)
				where := fmt.Sprintf("%s seq %d call %d (%s)", cell.name, si, i, c.name)
				if (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s: Run error %v, RunInto error %v", where, ferr, rerr)
				}
				if rerr != nil {
					if !reflect.DeepEqual(&reused, before) {
						t.Fatalf("%s: a failed RunInto changed its answer", where)
					}
					continue
				}
				compared++
				if w := len(reused.Ledger.SortedCounts); w < prevWidth {
					narrowed++
				}
				if prevPlanned && reused.Plan == nil {
					unplanned++
				}
				if reused.Truncated {
					truncated++
				}
				prevWidth, prevPlanned = len(reused.Ledger.SortedCounts), reused.Plan != nil
				assertSameAnswer(t, where, &reused, fresh)
				snap := deepCopyAnswer(&reused)
				if _, err := eng.Run(Query{F: Avg(), K: 30}); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(&reused, snap) {
					t.Fatalf("%s: the reused answer changed under the next run", where)
				}
			}
		}
	}
	t.Logf("%d answers compared: %d wide-to-narrow, %d planned-to-unplanned, %d truncated", compared, narrowed, unplanned, truncated)
	if narrowed == 0 || unplanned == 0 || truncated == 0 || compared < 100 {
		t.Fatalf("sequences too tame: %d compared, %d wide-to-narrow, %d planned-to-unplanned, %d truncated", compared, narrowed, unplanned, truncated)
	}
}

// assertSameAnswer compares a reused answer with a fresh one field by
// field; an empty item list equals an absent one.
func assertSameAnswer(t *testing.T, where string, got, want *Answer) {
	t.Helper()
	if len(got.Items) != len(want.Items) || len(got.Items) > 0 && !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("%s: items\n got  %v\n want %v", where, got.Items, want.Items)
	}
	if !reflect.DeepEqual(got.Ledger, want.Ledger) {
		t.Fatalf("%s: ledger\n got  %+v\n want %+v", where, got.Ledger, want.Ledger)
	}
	if (got.Plan == nil) != (want.Plan == nil) || got.Plan != nil && !reflect.DeepEqual(*got.Plan, *want.Plan) {
		t.Fatalf("%s: plan\n got  %+v\n want %+v", where, got.Plan, want.Plan)
	}
	if got.Truncated != want.Truncated || !reflect.DeepEqual(got.Degraded, want.Degraded) {
		t.Fatalf("%s: truncated %v degraded %v, want %v %v", where, got.Truncated, got.Degraded, want.Truncated, want.Degraded)
	}
	if got.Elapsed != want.Elapsed || got.Wall != want.Wall || got.Trace != nil || want.Trace != nil {
		t.Fatalf("%s: elapsed %v wall %v trace %v, want %v %v %v", where, got.Elapsed, got.Wall, got.Trace, want.Elapsed, want.Wall, want.Trace)
	}
}

// TestNextIntoEquivalence pages pairs of identical cursors over every
// Figure-2 cell in lockstep — one through Next/NextUntil, one through
// NextInto/NextUntilInto into a single Page reused across all cursors of
// the cell — with random deltas and thresholds, and requires every pair of
// pages equal field by field: items, ledger, plan, Truncated, Degraded and
// Exhausted.
func TestNextIntoEquivalence(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 300, 3, 13)
	rng := rand.New(rand.NewSource(41))
	var pages, ranged, unplanned int
	for _, cell := range figure2Cells(3, 10) {
		eng, err := NewEngine(DataBackend(ds), cell.scn, WithPlanCache(NewPlanCache(0)))
		if err != nil {
			t.Fatal(err)
		}
		var reused Page
		modes := []string{"opt", "fixed", "named"}
		for ci := 0; ci < 12; ci++ {
			c := drawIntoCall(rng, 3-ci%3, modes[ci%len(modes)])
			if ci%len(modes) == 2 {
				c.opts = []RunOption{WithAlgorithm([]string{"TA", "MPro"}[rng.Intn(2)])}
			}
			fresh, ferr := eng.Open(c.q, c.opts...)
			paged, perr := eng.Open(c.q, c.opts...)
			if (ferr == nil) != (perr == nil) {
				t.Fatalf("%s cursor %d: Open errors differ: %v, %v", cell.name, ci, ferr, perr)
			}
			if ferr != nil {
				continue
			}
			for p := 0; p < 6; p++ {
				where := fmt.Sprintf("%s cursor %d (%s) page %d", cell.name, ci, c.name, p)
				var want *Page
				var werr, gerr error
				if tau := rng.Float64(); rng.Intn(3) == 0 {
					want, werr = fresh.NextUntil(tau)
					gerr = paged.NextUntilInto(&reused, tau)
					ranged++
				} else {
					delta := rng.Intn(25)
					want, werr = fresh.Next(delta)
					gerr = paged.NextInto(&reused, delta)
				}
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: errors differ: %v, %v", where, werr, gerr)
				}
				if werr != nil {
					continue
				}
				pages++
				if reused.Plan == nil {
					unplanned++
				}
				if len(reused.Items) != len(want.Items) || len(want.Items) > 0 && !reflect.DeepEqual(reused.Items, want.Items) {
					t.Fatalf("%s: items\n got  %v\n want %v", where, reused.Items, want.Items)
				}
				if !reflect.DeepEqual(reused.Ledger, want.Ledger) {
					t.Fatalf("%s: ledger\n got  %+v\n want %+v", where, reused.Ledger, want.Ledger)
				}
				if (reused.Plan == nil) != (want.Plan == nil) || reused.Plan != nil && !reflect.DeepEqual(*reused.Plan, *want.Plan) {
					t.Fatalf("%s: plan\n got  %+v\n want %+v", where, reused.Plan, want.Plan)
				}
				if reused.Plan != nil && reused.Plan != paged.Plan() {
					t.Fatalf("%s: the page's plan is not the cursor's read-only copy", where)
				}
				if reused.Truncated != want.Truncated || reused.Exhausted != want.Exhausted || !reflect.DeepEqual(reused.Degraded, want.Degraded) {
					t.Fatalf("%s: truncated %v exhausted %v degraded %v, want %v %v %v", where,
						reused.Truncated, reused.Exhausted, reused.Degraded, want.Truncated, want.Exhausted, want.Degraded)
				}
			}
			fresh.Close()
			paged.Close()
		}
	}
	t.Logf("%d pages compared: %d ranged, %d unplanned", pages, ranged, unplanned)
	if pages < 100 || ranged == 0 || unplanned == 0 {
		t.Fatalf("too few pages compared: %d, %d ranged, %d unplanned", pages, ranged, unplanned)
	}
}

// TestIntoAllocGate holds a warm RunInto into a reused Answer — a
// plan-cache hit, its plan copied into the answer's own plan storage — and a
// warm NextInto into a reused Page to zero allocations: everything the run
// or page produces is copied into storage the caller already owns.
func TestIntoAllocGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate needs steady-state measurement on a pool that keeps what it is given")
	}
	ds := mustGenerateDataset(t, "uniform", 1000, 3, 42)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(3, 1, 1), WithPlanCache(NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	var (
		ans  Answer
		plan Plan
	)
	queries := []Query{{F: Min(), K: 10}, {F: Avg(), K: 25, Cols: []int{2, 0}}, {F: Min(), K: 1, Cols: []int{1}}}
	run := func() {
		for _, q := range queries {
			ans.Plan = &plan
			if err := eng.RunInto(&ans, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // the plan-cache misses and the pool's first state
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("%d warm RunIntos into a reused answer allocate %v, want 0", len(queries), allocs)
	}
	if ans.Plan != &plan {
		t.Fatal("RunInto replaced the answer's plan storage")
	}

	// A deep cursor grows the pooled state once; the measured cursor then
	// pages on the recycled state into one reused page.
	q := Query{F: Min(), K: 5}
	deep, err := eng.Open(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deep.Next(400); err != nil {
		t.Fatal(err)
	}
	deep.Close()
	cur, err := eng.Open(q)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var page Page
	next := func() {
		if err := cur.NextInto(&page, 2); err != nil {
			t.Fatal(err)
		}
	}
	next()
	if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
		t.Errorf("a warm NextInto into a reused page allocates %v, want 0", allocs)
	}
	if len(page.Items) != 2 || page.Plan == nil {
		t.Fatalf("page shape: %d items, plan %v", len(page.Items), page.Plan)
	}
}
