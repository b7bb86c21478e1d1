package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWritePrometheusGolden pins the full text exposition of a small
// registry: header placement, label rendering and escaping, cumulative
// histogram buckets with +Inf, and name-then-labels ordering. The format
// is a wire contract (Prometheus text exposition 0.0.4), so the test is a
// byte-for-byte golden.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("topk_queries_total", "Queries served by status.", L("status", "ok")).Add(3)
	reg.Counter("topk_queries_total", "Queries served by status.", L("status", "error")).Inc()
	reg.Gauge("topk_executor_inflight", "Concurrent accesses currently in flight.").Set(7)
	h := reg.Histogram("topk_access_cost_units", "Per-access billed cost in cost units.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(1)
	h.Observe(5)
	h.Observe(50)
	reg.Counter("odd_label_total", "Escaping check.", L("path", `a"b\c`+"\n"))

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP odd_label_total Escaping check.
# TYPE odd_label_total counter
odd_label_total{path="a\"b\\c\n"} 0
# HELP topk_access_cost_units Per-access billed cost in cost units.
# TYPE topk_access_cost_units histogram
topk_access_cost_units_bucket{le="1"} 2
topk_access_cost_units_bucket{le="10"} 3
topk_access_cost_units_bucket{le="+Inf"} 4
topk_access_cost_units_sum 56.5
topk_access_cost_units_count 4
# HELP topk_executor_inflight Concurrent accesses currently in flight.
# TYPE topk_executor_inflight gauge
topk_executor_inflight 7
# HELP topk_queries_total Queries served by status.
# TYPE topk_queries_total counter
topk_queries_total{status="error"} 1
topk_queries_total{status="ok"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c_total", "help")
	b := reg.Counter("c_total", "help")
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	if reg.Counter("c_total", "help", L("k", "v")) == a {
		t.Error("different label set must be a distinct series")
	}
	// Histogram buckets are fixed at first registration.
	h1 := reg.Histogram("h", "help", []float64{1, 2})
	h2 := reg.Histogram("h", "help", []float64{5})
	if h1 != h2 {
		t.Error("re-registration with different buckets must return the existing series")
	}
}

// TestRegistryKindCollision checks the panic-free degradation: a name
// re-registered as a different kind yields a usable but detached series,
// and the exposition still renders the original.
func TestRegistryKindCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "help").Add(2)
	g := reg.Gauge("x_total", "help")
	g.Set(99) // must not panic or corrupt the counter
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "x_total 2") {
		t.Errorf("original counter lost:\n%s", out)
	}
	if strings.Contains(out, "99") {
		t.Errorf("detached gauge leaked into exposition:\n%s", out)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", []float64{1, 2, 3})
	for _, v := range []float64{1, 2, 3} {
		h.Observe(v) // le semantics: v == bound lands in that bucket
	}
	h.Observe(3.5)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="2"} 2`,
		`h_bucket{le="3"} 3`,
		`h_bucket{le="+Inf"} 4`,
		`h_count 4`,
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("missing %q in:\n%s", line, b.String())
		}
	}
	if h.Sum() != 9.5 {
		t.Errorf("Sum = %g", h.Sum())
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// updates on shared handles, fresh registrations, and scrapes all at once —
// and then checks that no update was lost. Run under -race this doubles as
// the data-race proof for the lock-free hot path.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	shared := reg.Counter("shared_total", "")
	gauge := reg.Gauge("g", "")
	hist := reg.Histogram("h", "", DefBuckets)

	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				shared.Inc()
				gauge.Add(1)
				gauge.Add(-1)
				hist.Observe(float64(i % 7))
				// Per-worker registrations interleave with everything else.
				reg.Counter("worker_total", "", L("w", fmt.Sprint(w))).Inc()
				if i%100 == 0 {
					var b strings.Builder
					if err := reg.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := shared.Value(); got != workers*perWorker {
		t.Errorf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := gauge.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := hist.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := reg.Counter("worker_total", "", L("w", fmt.Sprint(w))).Value(); got != perWorker {
			t.Errorf("worker %d counter = %d, want %d", w, got, perWorker)
		}
	}
}

// TestMetricsObserver drives events through the registry observer and
// checks the series it maintains.
func TestMetricsObserver(t *testing.T) {
	reg := NewRegistry()
	m := NewMetrics(reg)
	for _, ev := range []Event{
		{Kind: AccessDone, Access: Sorted, Pred: 0, Value: 1},
		{Kind: AccessDone, Access: Sorted, Pred: 1, Value: 2},
		{Kind: AccessDone, Access: Random, Pred: 0, Value: 10},
		{Kind: AccessDenied, Access: Random, Pred: 0, Code: uint8(DenyBudget)},
		{Kind: PhaseDone, Label: string(PhaseExecute), Value: 0.010},
		{Kind: PhaseDone, Label: "weird", Value: 0.001},
		{Kind: EstimatorEval, Code: Miss},
		{Kind: EstimatorEval, Code: Hit},
		{Kind: LoopIteration, Value: 5},
		{Kind: InflightChange, Value: +2},
		{Kind: InflightChange, Value: -1},
		{Kind: DispatchStall},
		{Kind: SourceRetry, Value: 0.001},
		{Kind: SourceFailure},
		{Kind: PlanCache, Code: Hit},
		{Kind: PlanCache, Code: Miss},
	} {
		m.Observe(ev)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`topk_accesses_total{kind="sorted"} 2`,
		`topk_accesses_total{kind="random"} 1`,
		`topk_access_denied_total{reason="budget"} 1`,
		`topk_estimator_evals_total{result="run"} 1`,
		`topk_estimator_evals_total{result="memo"} 1`,
		`topk_nc_iterations_total 1`,
		`topk_nc_candidates 5`,
		`topk_executor_inflight 1`,
		`topk_executor_dispatch_stalls_total 1`,
		`topk_source_retries_total 1`,
		`topk_source_failures_total 1`,
		`topk_plan_cache_requests_total{result="hit"} 1`,
		`topk_plan_cache_requests_total{result="miss"} 1`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in exposition:\n%s", line, out)
		}
	}
	if !strings.Contains(out, `topk_phase_seconds_count{phase="execute"} 1`) ||
		!strings.Contains(out, `topk_phase_seconds_count{phase="other"} 1`) {
		t.Errorf("phase histograms missing:\n%s", out)
	}
}

// TestScrapeTimeSources: a series exposes what was stored through its
// handle plus what every registered source reads at scrape time, so a layer
// keeps one counter and two layers on one registry aggregate — while
// sources registered mid-scrape race nothing.
func TestScrapeTimeSources(t *testing.T) {
	reg := NewRegistry()
	var layerA, layerB atomic.Uint64
	var up atomic.Int64
	reg.CounterFunc("layer_hits_total", "Hits.", layerA.Load, L("result", "hit"))
	reg.CounterFunc("layer_hits_total", "Hits.", layerB.Load, L("result", "hit"))
	reg.GaugeFunc("layer_up", "Members up.", up.Load)
	reg.Counter("layer_hits_total", "Hits.", L("result", "hit")).Add(5)
	layerA.Add(2)
	layerB.Add(40)
	up.Store(3)
	up.Add(-1)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP layer_hits_total Hits.
# TYPE layer_hits_total counter
layer_hits_total{result="hit"} 47
# HELP layer_up Members up.
# TYPE layer_up gauge
layer_up 2
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.CounterFunc("layer_hits_total", "Hits.", layerA.Load, L("result", "hit"))
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}
