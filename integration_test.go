package topk

// Integration tests exercising the full middleware stack across packages:
// the SQL-like query front-end, HTTP web sources assembled into one backend
// and priced by timing them, the optimizer, and both sequential and
// live-concurrent execution — everything a deployed instance of the system
// would touch.

import (
	"context"
	"math"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/sqlq"
	"repro/internal/websim"
)

func TestFullStackOverHTTP(t *testing.T) {
	// The query, in the paper's syntax.
	pq, err := sqlq.Parse("select name from restaurants order by min(rating, closeness) stop after 4")
	if err != nil {
		t.Fatal(err)
	}

	// Two HTTP sources with different latencies over one universe, one
	// predicate each.
	bench, _, err := data.Restaurants(150, 77)
	if err != nil {
		t.Fatal(err)
	}
	ds := bench.Dataset
	start := func(pred int, latency time.Duration) string {
		srv, err := websim.NewServer(ds, websim.WithPredicates(pred), websim.WithFaults(fault.PredFault{SlowRate: 1, SlowDelay: latency}, 0))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	sources := []struct{ name, url string }{
		{"rating", start(0, 2*time.Millisecond)},
		{"closeness", start(1, time.Millisecond)},
	}

	// Route one middleware predicate to each source, and price each by
	// timing real accesses through a client of that source alone. The
	// sources are timed in alternating rounds, each price the median of its
	// rounds: a burst of load on the machine then slows both sources alike,
	// where timing one source after the other let a burst that covered
	// only the second calibration price the faster source above the slower.
	ctx := context.Background()
	names := make([]string, len(sources))
	routes := make([]websim.Route, len(sources))
	ones := make([]*websim.Client, len(sources))
	for i, src := range sources {
		names[i] = src.name
		routes[i] = websim.Route{BaseURL: src.url, Pred: 0}
		if ones[i], err = websim.NewClient(ctx, nil, routes[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 9
	sortedMS, randomMS := make([][]float64, len(sources)), make([][]float64, len(sources))
	for r := 0; r < rounds; r++ {
		for i, one := range ones {
			cal, err := MeasureStore(ctx, one, StoreMeasureOptions{Probes: 3, Batches: 1, Seed: int64(r)})
			if err != nil {
				t.Fatal(err)
			}
			sortedMS[i] = append(sortedMS[i], cal.SortedMS)
			randomMS[i] = append(randomMS[i], cal.RandomMS)
		}
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	scn := Scenario{Name: "http", Preds: make([]PredCost, len(sources))}
	for i := range sources {
		scn.Preds[i] = PredCost{Sorted: CostOf(median(sortedMS[i])), SortedOK: true, Random: CostOf(median(randomMS[i])), RandomOK: true}
	}
	// Calibration must notice that the rating source is slower.
	if scn.Preds[0].Sorted <= scn.Preds[1].Sorted {
		t.Errorf("calibration order wrong: %v vs %v", scn.Preds[0].Sorted, scn.Preds[1].Sorted)
	}

	cols, err := sqlq.Bind(pq, names)
	if err != nil {
		t.Fatal(err)
	}
	// The query lists rating first, matching the route order.
	if cols[0] != 0 || cols[1] != 1 {
		t.Fatalf("binding = %v", cols)
	}

	backend, err := websim.NewClient(ctx, nil, routes)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(backend, scn)
	if err != nil {
		t.Fatal(err)
	}

	oracle := ds.TopK(pq.Func.Eval, pq.K)
	check := func(items []Item) {
		t.Helper()
		if len(items) != pq.K {
			t.Fatalf("got %d items", len(items))
		}
		got := make([]float64, len(items))
		want := make([]float64, len(items))
		for i := range items {
			got[i] = pq.Func.Eval(ds.Scores(items[i].Obj))
			want[i] = oracle[i].Score
		}
		sort.Float64s(got)
		sort.Float64s(want)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("answer mismatch: %v vs %v", got, want)
			}
		}
	}

	seq, err := eng.Run(Query{F: pq.Func, K: pq.K})
	if err != nil {
		t.Fatal(err)
	}
	check(seq.Items)
	if seq.TotalCost() <= 0 || seq.Plan == nil {
		t.Error("sequential run missing cost or plan")
	}

	live, err := eng.Run(Query{F: pq.Func, K: pq.K}, WithLive(6))
	if err != nil {
		t.Fatal(err)
	}
	check(live.Items)
	if live.Wall <= 0 {
		t.Error("live run missing wall time")
	}
}

func TestFullStackDynamicCostsAdaptive(t *testing.T) {
	// End-to-end adaptivity through the facade: an engine whose sources
	// degrade mid-query, answered adaptively, statically, and by TA.
	ds := mustGenerateDataset(t, "uniform", 500, 2, 13)
	shifts := []CostShift{
		{AfterAccesses: 40, Pred: 0, RandomFactor: 30},
		{AfterAccesses: 40, Pred: 1, RandomFactor: 30},
	}
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1), WithCostShifts(shifts...))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{F: Avg(), K: 8}
	adaptive, err := eng.Run(q, WithAdaptive(10))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Avg(), 8, adaptive.Items)
	ta, err := eng.Run(q, WithAlgorithm("TA"))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Avg(), 8, ta.Items)
	if adaptive.TotalCost() >= ta.TotalCost() {
		t.Errorf("adaptive %v should beat oblivious TA %v under a probe-cost spike",
			adaptive.TotalCost(), ta.TotalCost())
	}
}

func TestSQLQueryThroughFacade(t *testing.T) {
	// Parse the paper's Q2 syntax and execute it against the hotel
	// benchmark through the facade.
	pq, err := sqlq.Parse("select name from hotels order by avg(closeness, rating, cheap) stop after 5")
	if err != nil {
		t.Fatal(err)
	}
	bench, _, err := data.Hotels(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := sqlq.Bind(pq, bench.PredicateNames)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cols {
		if c != i {
			t.Fatalf("Q2's predicate order matches the benchmark's: %v", cols)
		}
	}
	eng, err := NewEngine(DataBackend(bench.Dataset), UniformScenario(3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: pq.Func, K: pq.K})
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, bench.Dataset, pq.Func, pq.K, ans.Items)
}
