package topk

// What a served query allocates is what its caller keeps: these tests pin
// that a warm Run allocates nothing but its Answer's own memory, and that
// nothing an Answer or Page holds points into the pooled state the engine
// recycles for the next query.

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestRunAllocGate holds a warm plan-cache-hit Run to 5 allocations and
// proves every one of them is memory the returned Answer owns: the count
// equals the number of distinct heap blocks reachable from the Answer — the
// answer itself with its plan copy inside it, the items, the ledger's one
// count array, and the plan's two slices. A temporary the run dropped would
// make the count exceed the blocks.
func TestRunAllocGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate needs steady-state measurement on a pool that keeps what it is given")
	}
	ds := mustGenerateDataset(t, "uniform", 1000, 3, 42)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(3, 1, 1), WithPlanCache(NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{F: Min(), K: 10}
	var ans *Answer
	run := func() {
		if ans, err = eng.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	run() // the plan-cache miss and the pool's first state
	run()
	allocs := testing.AllocsPerRun(100, run)
	if allocs > 5 {
		t.Errorf("warm plan-cache-hit Run allocates %v, gate is 5", allocs)
	}

	if ans.Plan == nil || ans.Trace != nil || ans.Degraded != nil {
		t.Fatalf("answer shape: plan %v, trace %v, degraded %v", ans.Plan, ans.Trace, ans.Degraded)
	}
	m := len(ans.Ledger.SortedCounts)
	sorted := uintptr(unsafe.Pointer(unsafe.SliceData(ans.Ledger.SortedCounts)))
	random := uintptr(unsafe.Pointer(unsafe.SliceData(ans.Ledger.RandomCounts)))
	if random != sorted+uintptr(m)*unsafe.Sizeof(int(0)) {
		t.Error("the ledger's two count slices do not share one backing array")
	}
	base, plan := uintptr(unsafe.Pointer(ans)), uintptr(unsafe.Pointer(ans.Plan))
	if plan <= base || plan >= base+unsafe.Sizeof(Answer{})+unsafe.Sizeof(Plan{}) {
		t.Error("the plan copy is not allocated with the answer")
	}
	blocks := map[uintptr]bool{
		base:   true,
		sorted: true,
		uintptr(unsafe.Pointer(unsafe.SliceData(ans.Items))):      true,
		uintptr(unsafe.Pointer(unsafe.SliceData(ans.Plan.H))):     true,
		uintptr(unsafe.Pointer(unsafe.SliceData(ans.Plan.Omega))): true,
	}
	if allocs != float64(len(blocks)) {
		t.Errorf("Run allocates %v objects but its answer owns %d blocks: something else is allocated per run", allocs, len(blocks))
	}
}

// TestRunAllocGateAcrossColumns: one engine serves queries over any of its
// columns from one pool, so warm runs that alternate column lists — and
// widths — allocate only the 5 blocks each answer owns, as runs over fixed
// columns do.
func TestRunAllocGateAcrossColumns(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate needs steady-state measurement on a pool that keeps what it is given")
	}
	ds := mustGenerateDataset(t, "uniform", 1000, 3, 42)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(3, 1, 1), WithPlanCache(NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{F: Min(), K: 10, Cols: []int{2, 0}}, {F: Avg(), K: 10}, {F: Min(), K: 10, Cols: []int{1}},
		{F: Avg(), K: 10, Cols: []int{1, 2, 0}},
	}
	run := func() {
		for _, q := range queries {
			if _, err := eng.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // the plan-cache misses and the pool's first state at every width
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs > float64(5*len(queries)) {
		t.Errorf("%d warm runs over alternating columns allocate %v, their answers own %d blocks", len(queries), allocs, 5*len(queries))
	}
}

// TestRunAllocGateOnPlanSample is TestRunAllocGateAcrossColumns on an
// engine that plans on rows of its own base: the sample is drawn once, by
// NewEngine, straight from the base — no query pays an access for it — and
// every column list plans on that one sample, read through its columns, so
// a warm plan-cache hit over any column list allocates only its answer.
func TestRunAllocGateOnPlanSample(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 5000, 3, 42)
	above := &belowCounter{countingBackend{Backend: DataBackend(ds)}}
	eng, err := NewEngine(above, UniformScenario(3, 1, 1), WithPlanCache(NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	base := eng.sample
	if base == nil || base.N() != 50 || base.M() != 3 || eng.PlanSample(OptimizerConfig{}) != "base(50)" {
		t.Fatalf("engine over n = 5000 plans on %q, want base(50)", eng.PlanSample(OptimizerConfig{}))
	}
	if above.n.Load() != 0 {
		t.Fatalf("drawing the sample made %d accesses through the stack above the base", above.n.Load())
	}
	queries := []Query{
		{F: Min(), K: 10, Cols: []int{2, 0}}, {F: Avg(), K: 10}, {F: Min(), K: 10, Cols: []int{1}},
		{F: Avg(), K: 10, Cols: []int{2, 0}},
	}
	run := func() {
		for _, q := range queries {
			if _, err := eng.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Column lists first seen by concurrent plans, all on the one sample.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range queries {
				if _, err := eng.Run(q); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	run()
	if eng.sample != base {
		t.Fatal("the sample was redrawn by a query")
	}
	if testing.Short() || raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(50, run); allocs > float64(5*len(queries)) {
		t.Errorf("%d warm runs planned on the engine's sample allocate %v, their answers own %d blocks", len(queries), allocs, 5*len(queries))
	}
}

// belowCounter counts the accesses that pass through it to the layer
// below, which it exposes the access.As way, as a wrapper over the base
// does.
type belowCounter struct {
	countingBackend
}

func (b *belowCounter) Unwrap() Backend { return b.Backend }

// TestAnswersOutliveTheirState takes an Answer and a Page, recycles their
// pooled state, runs 100 more queries of other shapes on the same engine
// and requires both unchanged, compared by deep equality against copies
// taken at the start.
func TestAnswersOutliveTheirState(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 300, 3, 7)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(3, 1, 2), WithPlanCache(NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Avg(), K: 6})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := eng.Open(Query{F: Min(), K: 4})
	if err != nil {
		t.Fatal(err)
	}
	page, err := cur.Next(4)
	if err != nil {
		t.Fatal(err)
	}
	plan := cur.Plan()
	if page.Plan == nil || plan != page.Plan {
		t.Fatalf("cursor plan %p, page plan %p: want one shared copy", plan, page.Plan)
	}
	cur.Close()
	wantAns, wantPage := deepCopyAnswer(ans), deepCopyPage(page)

	funcs := []ScoreFunc{Min(), Avg(), Max(), Weighted(0.5, 0.3, 0.2)}
	for i := 0; i < 100; i++ {
		q := Query{F: funcs[i%len(funcs)], K: 1 + i%13}
		if i%3 == 0 {
			c, err := eng.Open(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Next(q.K); err != nil {
				t.Fatal(err)
			}
			c.Close()
			continue
		}
		if _, err := eng.Run(q, WithNC([]float64{0.3, 0.6, 0.9}, []int{2, 1, 0})); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(ans, wantAns) {
		t.Errorf("answer changed under recycling:\n got  %+v\n want %+v", ans, wantAns)
	}
	if !reflect.DeepEqual(page, wantPage) {
		t.Errorf("page changed under recycling:\n got  %+v\n want %+v", page, wantPage)
	}
}

func deepCopyAnswer(a *Answer) *Answer {
	c := *a
	c.Items = append([]Item(nil), a.Items...)
	c.Ledger = deepCopyLedger(a.Ledger)
	c.Plan = deepCopyPlan(a.Plan)
	return &c
}

func deepCopyPage(p *Page) *Page {
	c := *p
	c.Items = append([]Item(nil), p.Items...)
	c.Ledger = deepCopyLedger(p.Ledger)
	c.Plan = deepCopyPlan(p.Plan)
	return &c
}

func deepCopyLedger(l Ledger) Ledger {
	l.SortedCounts = append([]int(nil), l.SortedCounts...)
	l.RandomCounts = append([]int(nil), l.RandomCounts...)
	return l
}

func deepCopyPlan(p *Plan) *Plan {
	if p == nil {
		return nil
	}
	c := *p
	c.H = append([]float64(nil), p.H...)
	c.Omega = append([]int(nil), p.Omega...)
	return &c
}
