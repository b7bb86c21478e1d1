package topk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/obs"
)

// traceAt reads a lazily-grown per-predicate trace slice, treating the
// missing tail as zero.
func traceAt(s []int, i int) int {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// checkConservation asserts the tentpole invariant of the trace: the
// observer-side per-predicate access counts and billed cost must equal the
// session ledger exactly — the trace is the ledger, seen from the outside.
func checkConservation(t *testing.T, label string, ans *Answer) {
	t.Helper()
	if ans.Trace == nil {
		t.Fatalf("%s: no trace attached", label)
	}
	for i := range ans.Ledger.SortedCounts {
		if got, want := traceAt(ans.Trace.SortedAccesses, i), ans.Ledger.SortedCounts[i]; got != want {
			t.Errorf("%s: trace sorted[%d] = %d, ledger says %d", label, i, got, want)
		}
		if got, want := traceAt(ans.Trace.RandomAccesses, i), ans.Ledger.RandomCounts[i]; got != want {
			t.Errorf("%s: trace random[%d] = %d, ledger says %d", label, i, got, want)
		}
	}
	if diff := math.Abs(ans.Trace.CostUnits - ans.TotalCost().Units()); diff > 1e-6 {
		t.Errorf("%s: trace cost %g vs ledger %g", label, ans.Trace.CostUnits, ans.TotalCost().Units())
	}
}

// accessScrape is what /metrics says about billed accesses: the
// topk_accesses_total series by kind and the access-cost histogram's count
// and sum.
type accessScrape struct {
	sorted, random, count int64
	sum                   float64
}

// scrapeAccesses reads the access series from the registry's exposition.
func scrapeAccesses(t *testing.T, reg *MetricsRegistry) accessScrape {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var s accessScrape
	for _, line := range strings.Split(b.String(), "\n") {
		name, val, _ := strings.Cut(line, " ")
		v, _ := strconv.ParseFloat(val, 64)
		switch name {
		case `topk_accesses_total{kind="sorted"}`:
			s.sorted = int64(v)
		case `topk_accesses_total{kind="random"}`:
			s.random = int64(v)
		case "topk_access_cost_units_count":
			s.count = int64(v)
		case "topk_access_cost_units_sum":
			s.sum = v
		}
	}
	return s
}

// billed is the scrape delta a ledger predicts: every access counted once
// by kind and once in the histogram, at the price it was billed.
func billed(l Ledger) accessScrape {
	var s accessScrape
	for i := range l.SortedCounts {
		s.sorted += int64(l.SortedCounts[i])
		s.random += int64(l.RandomCounts[i])
	}
	s.count = s.sorted + s.random
	s.sum = l.TotalCost.Units()
	return s
}

// checkScrape asserts that /metrics moved by exactly want since before.
func checkScrape(t *testing.T, label string, reg *MetricsRegistry, before, want accessScrape) {
	t.Helper()
	now := scrapeAccesses(t, reg)
	got := accessScrape{now.sorted - before.sorted, now.random - before.random, now.count - before.count, now.sum - before.sum}
	if got.sorted != want.sorted || got.random != want.random || got.count != want.count || math.Abs(got.sum-want.sum) > 1e-6 {
		t.Errorf("%s: /metrics moved by %+v, the ledger billed %+v", label, got, want)
	}
}

// TestTraceConservesLedger runs every registry algorithm (plus fixed and
// optimized NC, and fixed NC under the bounded-concurrency executor against
// simulated and real time) across the Figure 2 scenario matrix and checks that the
// per-query trace and the scrape delta of /metrics conserve the ledger in
// every cell the algorithm supports. Cells an algorithm cannot run in
// (capability mismatch) error out before completing and are skipped there;
// the subtests hold /metrics to the ledger through a paged cursor, cost
// shifts, and runs that fail or are cancelled after billing accesses.
func TestTraceConservesLedger(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 120, 2, 7)
	caps := []access.Capability{access.Cheap, access.Expensive, access.Impossible}

	type run struct {
		name string
		opts []RunOption
	}
	runs := []run{
		{"NC-fixed", []RunOption{WithNC([]float64{0.5, 0.5}, nil)}},
		{"NC-opt", nil},
		{"NC-parallel", []RunOption{WithNC([]float64{0.5, 0.5}, nil), WithParallel(3)}},
		{"NC-live", []RunOption{WithNC([]float64{0.5, 0.5}, nil), WithLive(3)}},
	}
	for _, name := range algo.Names() {
		runs = append(runs, run{name, []RunOption{WithAlgorithm(name)}})
	}

	reg := NewMetricsRegistry()
	metrics := WithObserver(NewMetricsObserver(reg))
	completed := 0
	for _, sc := range caps {
		for _, rc := range caps {
			scn := access.MatrixCell(2, sc, rc, 10)
			eng, err := NewEngine(DataBackend(ds), scn)
			if err != nil {
				continue // a cell with no legal access at all (sa=ra=impossible)
			}
			for _, r := range runs {
				opts := append(append([]RunOption{}, r.opts...), metrics, WithTrace())
				before := scrapeAccesses(t, reg)
				ans, err := eng.Run(Query{F: Min(), K: 5}, opts...)
				if err != nil {
					continue // the cell denies an access this algorithm requires
				}
				completed++
				checkConservation(t, r.name+" @ "+scn.Name, ans)
				checkScrape(t, r.name+" @ "+scn.Name, reg, before, billed(ans.Ledger))
			}
		}
	}
	if completed < 20 {
		t.Fatalf("only %d algorithm/cell combinations completed; the matrix sweep is not exercising the property", completed)
	}

	t.Run("cursor-three-pages", func(t *testing.T) {
		eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		before := scrapeAccesses(t, reg)
		cur, err := eng.Open(Query{F: Min(), K: 2}, WithNC([]float64{0.5, 0.5}, nil), metrics, WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		for page := 1; page <= 3; page++ {
			p, err := cur.Next(2)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("page %d", page)
			checkConservation(t, label, &Answer{Ledger: p.Ledger, Trace: cur.Trace()})
			checkScrape(t, label, reg, before, billed(p.Ledger))
		}
		led := cur.Ledger()
		cur.Close()
		checkScrape(t, "closed", reg, before, billed(led))
	})

	// Shifted prices: the sum is exact only if every stretch of accesses
	// reaches the histogram at the price it was billed, also when the
	// executor settles accesses admitted at two prices out of order.
	for _, r := range []run{
		{"cost-shifts", []RunOption{WithNC([]float64{0.5, 0.5}, nil)}},
		{"cost-shifts-parallel", []RunOption{WithNC([]float64{0.5, 0.5}, nil), WithParallel(4)}},
		{"cost-shifts-optimized", nil},
	} {
		t.Run(r.name, func(t *testing.T) {
			shifts := []CostShift{
				{AfterAccesses: 10, Pred: 0, SortedFactor: 3, RandomFactor: 3},
				{AfterAccesses: 20, Pred: 1, SortedFactor: 2, RandomFactor: 30},
			}
			eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1), WithCostShifts(shifts...))
			if err != nil {
				t.Fatal(err)
			}
			before := scrapeAccesses(t, reg)
			ans, err := eng.Run(Query{F: Avg(), K: 10}, append(r.opts, metrics, WithTrace())...)
			if err != nil {
				t.Fatal(err)
			}
			want := billed(ans.Ledger)
			if want.sum == float64(want.count) {
				t.Fatalf("the run billed %+v at unit prices: no shift fired", want)
			}
			checkConservation(t, r.name, ans)
			checkScrape(t, r.name, reg, before, want)
		})
	}

	// A run that ends in an error after billing accesses has no ledger to
	// return; the backend's count of what it answered is the bill.
	t.Run("failed-and-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		outage := fault.Config{Preds: map[int]fault.PredFault{0: {OutageFrom: 5, OutageTo: -1}}}
		for _, tc := range []struct {
			name    string
			backend *outcomes
			wantErr error
		}{
			{"failed", &outcomes{Backend: fault.Wrap(DataBackend(ds), outage)}, fault.ErrInjected},
			{"cancelled", &outcomes{Backend: &tripwire{Backend: DataBackend(ds), at: map[int64]func(){9: cancel}}}, context.Canceled},
		} {
			eng, err := NewEngine(tc.backend, UniformScenario(2, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			before := scrapeAccesses(t, reg)
			_, err = eng.Run(Query{F: Avg(), K: 10}, WithNC([]float64{0.5, 0.5}, nil), WithContext(ctx), metrics)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
			}
			ok := tc.backend.ok.Load()
			if ok == 0 {
				t.Fatalf("%s: the run failed before billing anything", tc.name)
			}
			if got := scrapeAccesses(t, reg); got.count-before.count != ok || got.sorted+got.random-before.sorted-before.random != ok ||
				math.Abs(got.sum-before.sum-float64(ok)) > 1e-6 {
				t.Errorf("%s: /metrics moved from %+v to %+v, the backend answered %d unit-price accesses", tc.name, before, got, ok)
			}
		}
	})
}

// TestRunObserverAndTraceCompose drives the full optimized pipeline with a
// metrics registry and a trace at once and cross-checks all three views:
// ledger, trace, and Prometheus exposition.
func TestRunObserverAndTraceCompose(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 200, 2, 11)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	ans, err := eng.Run(Query{F: Avg(), K: 5}, WithObserver(NewMetricsObserver(reg)), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "optimized", ans)
	if ans.Trace.EstimatorEvals == 0 {
		t.Error("optimized run recorded no estimator evaluations")
	}
	if ans.Trace.Iterations == 0 || ans.Trace.CandidatesHighWater == 0 {
		t.Errorf("framework progress missing from trace: %+v", ans.Trace)
	}
	phases := make(map[string]bool)
	for _, p := range ans.Trace.Phases {
		phases[string(p.Phase)] = true
	}
	if !phases["optimize"] || !phases["execute"] {
		t.Errorf("phases = %v, want optimize and execute", ans.Trace.Phases)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	totalAccesses := 0
	for i := range ans.Ledger.SortedCounts {
		totalAccesses += ans.Ledger.SortedCounts[i] + ans.Ledger.RandomCounts[i]
	}
	if !strings.Contains(out, "topk_accesses_total") || totalAccesses == 0 {
		t.Fatalf("no accesses exposed; ledger = %+v", ans.Ledger)
	}
	// The cost histogram saw exactly one observation per billed access.
	costCount := reg.Histogram("topk_access_cost_units", "", nil).Count()
	if costCount != int64(totalAccesses) {
		t.Errorf("cost histogram count = %d, ledger billed %d", costCount, totalAccesses)
	}
}

// TestTraceBudgetExhaustion checks the anytime path: a starved budget must
// surface in the trace as budget denials with the exhaustion flag set.
func TestTraceBudgetExhaustion(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 200, 2, 3)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Min(), K: 10},
		WithNC([]float64{0.5, 0.5}, nil), WithBudget(4), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Truncated {
		t.Fatal("budget of 4 units should truncate a k=10 run")
	}
	if !ans.Trace.BudgetExhausted || ans.Trace.Denied["budget"] == 0 {
		t.Errorf("trace missed the budget cutoff: %+v", ans.Trace)
	}
	checkConservation(t, "budgeted", ans)
}

// TestParallelTrace checks the simulated concurrent executor's trace: slot
// occupancy reached the bound at least once on a busy run, and the counts
// still conserve the ledger.
func TestParallelTrace(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 300, 2, 13)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Min(), K: 10},
		WithNC([]float64{0.5, 0.5}, nil), WithParallel(4), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "parallel", ans)
	if ans.Trace.InflightHighWater < 1 {
		t.Errorf("inflight high water = %d, want >= 1", ans.Trace.InflightHighWater)
	}
	if ans.Trace.InflightHighWater > 4 {
		t.Errorf("inflight high water %d exceeds the bound B=4", ans.Trace.InflightHighWater)
	}
}

// TestExecutorInflightSettles: a concurrent run that ends with accesses
// still in flight — out of budget (which answers Truncated, not an error),
// cancelled, failed by its backend — returns the executor-inflight gauge to
// zero. The gauge is shared by every
// query of a service, so a run that leaked its outstanding flights skewed
// it for good.
func TestExecutorInflightSettles(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 1000, 2, 42)
	q := Query{F: Avg(), K: 10}
	nc := WithNC([]float64{0.5, 0.5}, nil)
	hang := fault.PredFault{HangRate: 1}
	for _, tc := range []struct {
		name    string
		backend func(cancel context.CancelFunc) Backend
		opts    []RunOption
		wantErr error
	}{
		{"parallel-out-of-budget", func(context.CancelFunc) Backend { return DataBackend(ds) },
			[]RunOption{WithParallel(8), WithBudget(20)}, nil},
		{"live-cancelled", func(cancel context.CancelFunc) Backend {
			// The first access cancels the run as it starts, then hangs on
			// the cancelled context like every access after it.
			hung := fault.Wrap(DataBackend(ds), fault.Config{Preds: map[int]fault.PredFault{0: hang, 1: hang}})
			return &tripwire{Backend: hung, at: map[int64]func(){1: cancel}}
		}, []RunOption{WithLive(4)}, context.Canceled},
		{"live-backend-fails", func(context.CancelFunc) Backend {
			return fault.Wrap(DataBackend(ds), fault.Config{Preds: map[int]fault.PredFault{0: {OutageFrom: 3, OutageTo: -1}}})
		}, []RunOption{WithLive(4)}, fault.ErrInjected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			eng, err := NewEngine(tc.backend(cancel), UniformScenario(2, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			reg := NewMetricsRegistry()
			opts := append([]RunOption{nc, WithContext(ctx), WithObserver(NewMetricsObserver(reg)), WithTrace()}, tc.opts...)
			if _, err := eng.Run(q, opts...); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := reg.Gauge("topk_executor_inflight", "").Value(); got != 0 {
				t.Errorf("topk_executor_inflight = %d after the run returned, want 0", got)
			}
		})
	}
}

// outcomes counts what the backend beneath it answered.
type outcomes struct {
	Backend
	ok, failed atomic.Int64
}

func (o *outcomes) count(err error) {
	if err != nil {
		o.failed.Add(1)
	} else {
		o.ok.Add(1)
	}
}

func (o *outcomes) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	obj, s, err := o.Backend.Sorted(ctx, pred, rank)
	o.count(err)
	return obj, s, err
}

func (o *outcomes) Random(ctx context.Context, pred, obj int) (float64, error) {
	s, err := o.Backend.Random(ctx, pred, obj)
	o.count(err)
	return s, err
}

// TestFailedConcurrentAccessCountedOnce: an access the source fails is
// reported once, as denied, and never billed — under the executor as in a
// sequential run. The live executor used to bill at dispatch and deny at
// completion, so a failing run's trace counted the access on both sides.
func TestFailedConcurrentAccessCountedOnce(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 1000, 2, 42)
	for _, tc := range []struct {
		name string
		opt  RunOption
	}{{"live-1", WithLive(1)}, {"live-4", WithLive(4)}, {"parallel-4", WithParallel(4)}} {
		t.Run(tc.name, func(t *testing.T) {
			faulty := fault.Wrap(DataBackend(ds), fault.Config{Seed: 7, Preds: map[int]fault.PredFault{0: {OutageFrom: 3, OutageTo: -1}}})
			backend := &outcomes{Backend: faulty}
			eng, err := NewEngine(backend, UniformScenario(2, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewQueryTrace()
			_, err = eng.Run(Query{F: Avg(), K: 10}, WithNC([]float64{0.5, 0.5}, nil), tc.opt, WithObserver(tr))
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("err = %v, want the injected outage", err)
			}
			snap := tr.Snapshot()
			billed := 0
			for i := 0; i < 2; i++ {
				billed += traceAt(snap.SortedAccesses, i) + traceAt(snap.RandomAccesses, i)
			}
			// The failure is terminal: the first one settled ends the run, and
			// whatever else was out is abandoned — neither billed nor denied.
			if got := snap.Denied["backend"]; got != 1 {
				t.Errorf("failed access denied %d times, want once (denials: %v)", got, snap.Denied)
			}
			if ok := int(backend.ok.Load()); billed > ok {
				t.Errorf("trace bills %d accesses, the sources answered %d", billed, ok)
			} else if tc.name == "live-1" && billed != ok {
				t.Errorf("one access at a time: trace bills %d accesses, the sources answered %d", billed, ok)
			}
			if math.Abs(snap.CostUnits-float64(billed)) > 1e-9 {
				t.Errorf("trace cost %g for %d unit-cost accesses: the failed access was charged", snap.CostUnits, billed)
			}
		})
	}
}

// TestObserverThroughCursor checks that Open threads an observer into the
// incremental session and that cursor traces accumulate across pages,
// always conserving the cumulative ledger.
func TestObserverThroughCursor(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 100, 2, 17)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := eng.Open(Query{F: Min(), K: 5}, WithNC([]float64{0.5, 0.5}, nil), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	if _, err := traced.Next(3); err != nil {
		t.Fatal(err)
	}
	snap1 := traced.Trace()
	if snap1 == nil {
		t.Fatal("traced cursor returned no snapshot")
	}
	if _, err := traced.Next(3); err != nil {
		t.Fatal(err)
	}
	snap2 := traced.Trace()
	if snap2.CostUnits <= snap1.CostUnits {
		t.Errorf("cursor trace should accumulate across pages: %g then %g", snap1.CostUnits, snap2.CostUnits)
	}
	tled := traced.Ledger()
	for i := range tled.SortedCounts {
		if traceAt(snap2.SortedAccesses, i) != tled.SortedCounts[i] {
			t.Errorf("paged trace sorted[%d] = %d, ledger %d",
				i, traceAt(snap2.SortedAccesses, i), tled.SortedCounts[i])
		}
	}

	tr := obs.NewQueryTrace()
	cur, err := eng.Open(Query{F: Min(), K: 5}, WithNC([]float64{0.5, 0.5}, nil), WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(1); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	led := cur.Ledger()
	for i := range led.SortedCounts {
		if traceAt(snap.SortedAccesses, i) != led.SortedCounts[i] {
			t.Errorf("cursor trace sorted[%d] = %d, ledger %d",
				i, traceAt(snap.SortedAccesses, i), led.SortedCounts[i])
		}
	}
	if snap.CostUnits == 0 {
		t.Error("cursor observer saw no billed cost")
	}
}
