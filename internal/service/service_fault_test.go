package service

// Service-level fault-tolerance tests: chaos via the Config.WrapBackend
// seam, load shedding at the admission gate, and per-query deadlines —
// with the degradation visible in the response body, /metrics, and
// ?trace=1, as the PR's observability contract requires.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	topk "repro"
	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/kit/kittest"
)

// startFaultService builds a two-predicate restaurant service whose
// configuration the caller can mutate before the handler is constructed.
func startFaultService(t *testing.T, mutate func(cfg *Config)) (*httptest.Server, *Handler) {
	t.Helper()
	bench, _, err := data.Restaurants(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dataset:  bench.Dataset,
		Columns:  bench.PredicateNames,
		Scenario: access.Uniform(2, 1, 2),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := NewHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, h
}

// postRaw posts a query and returns the raw response without asserting
// its status.
func postRaw(t *testing.T, ts *httptest.Server, path string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

// scrapeMetric returns the summed value of a metric across label sets in
// the /metrics exposition.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	var seen bool
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q: %v", line, err)
		}
		sum += v
		seen = true
	}
	if !seen {
		t.Fatalf("metric %s absent from /metrics", name)
	}
	return sum
}

// TestServiceChaosDegradedAndObservable: a permanent outage on one
// predicate (injected through the WrapBackend seam) must yield an HTTP
// 200 with a machine-readable degraded answer — and the breaker
// transitions and degraded re-plans must be visible in both the ?trace=1
// payload and /metrics.
func TestServiceChaosDegradedAndObservable(t *testing.T) {
	ts, _ := startFaultService(t, func(cfg *Config) {
		cfg.Breaker = topk.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}
		cfg.WrapBackend = func(b topk.Backend) topk.Backend {
			return fault.Wrap(b, fault.Config{Seed: 1, Preds: map[int]fault.PredFault{
				1: {OutageFrom: 0, OutageTo: -1},
			}})
		}
	})
	resp, payload := postRaw(t, ts, "/query?trace=1", QueryRequest{
		SQL: "select name from db order by min(rating, closeness) stop after 3",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query must answer 200, got %d: %s", resp.StatusCode, payload)
	}
	var qr QueryResponse
	if err := json.Unmarshal(payload, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Truncated || len(qr.Degraded) == 0 {
		t.Fatalf("outage answer not flagged degraded: truncated=%v degraded=%v", qr.Truncated, qr.Degraded)
	}
	var sawCircuit bool
	for _, r := range qr.Degraded {
		if strings.HasPrefix(r, "circuit_open:") {
			sawCircuit = true
		}
	}
	if !sawCircuit {
		t.Fatalf("degraded reasons %v carry no circuit_open entry", qr.Degraded)
	}
	if qr.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	if len(qr.Trace.BreakerTransitions) == 0 {
		t.Fatal("trace shows no breaker transitions")
	}
	if qr.Trace.DegradedReplans == 0 || len(qr.Trace.DegradedReasons) == 0 {
		t.Fatalf("trace shows no degradation: replans=%d reasons=%v",
			qr.Trace.DegradedReplans, qr.Trace.DegradedReasons)
	}
	if got := scrapeMetric(t, ts, "topk_breaker_transitions_total"); got == 0 {
		t.Error("topk_breaker_transitions_total not incremented")
	}
	if got := scrapeMetric(t, ts, "topk_breaker_open"); got == 0 {
		t.Error("topk_breaker_open gauge not raised while the circuit is open")
	}
	if got := scrapeMetric(t, ts, "topk_degraded_replans_total"); got == 0 {
		t.Error("topk_degraded_replans_total not incremented")
	}
}

// gatedBackend blocks every access until the gate closes (or the access
// context dies), holding a query deliberately inflight. Each sorted access
// that reaches it first tells entered, when there is room.
type gatedBackend struct {
	topk.Backend
	gate    <-chan struct{}
	entered chan<- struct{}
}

func (b gatedBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	select {
	case <-b.gate:
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	}
	return b.Backend.Sorted(ctx, pred, rank)
}

func (b gatedBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	select {
	case <-b.gate:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return b.Backend.Random(ctx, pred, obj)
}

// TestServiceLoadShedding: above MaxInflight concurrent queries, the
// service sheds with 503 + Retry-After instead of queueing, and counts
// the shed in topk_requests_shed_total.
func TestServiceLoadShedding(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	ts, h := startFaultService(t, func(cfg *Config) {
		cfg.MaxInflight = 1
		cfg.WrapBackend = func(b topk.Backend) topk.Backend {
			return gatedBackend{Backend: b, gate: gate, entered: entered}
		}
	})

	first := make(chan int, 1)
	go func() {
		resp, _ := postRaw(t, ts, "/query", QueryRequest{
			SQL: "select name from db order by min(rating, closeness) stop after 2",
		})
		first <- resp.StatusCode
	}()
	// The first query holds the inflight slot once it reaches the backend.
	<-entered

	resp, payload := postRaw(t, ts, "/query", QueryRequest{
		SQL: "select name from db order by min(rating, closeness) stop after 2",
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second query status %d, want 503: %s", resp.StatusCode, payload)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After header")
	}
	if got := scrapeMetric(t, ts, "topk_requests_shed_total"); got != 1 {
		t.Errorf("topk_requests_shed_total = %d, want 1", got)
	}

	close(gate)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("first query status %d after release, want 200", status)
	}
	if h.inflight.Load() != 0 {
		t.Errorf("inflight gauge leaked: %d", h.inflight.Load())
	}
}

// slowBackend takes delay of the handler's clock over every access,
// forcing the query deadline to fire mid-run.
type slowBackend struct {
	topk.Backend
	clk   *kittest.Clock
	delay time.Duration
}

func (b slowBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	b.clk.Advance(b.delay)
	return b.Backend.Sorted(ctx, pred, rank)
}

func (b slowBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	b.clk.Advance(b.delay)
	return b.Backend.Random(ctx, pred, obj)
}

// TestServiceQueryDeadlineDegrades: when the per-query deadline fires
// mid-run, the service still answers 200 with the work already paid for,
// flagged "query_deadline" — it does not hang or return a 5xx.
func TestServiceQueryDeadlineDegrades(t *testing.T) {
	clk := kittest.NewClock()
	ts, _ := startFaultService(t, func(cfg *Config) {
		cfg.QueryTimeout = 60 * time.Millisecond
		cfg.Breaker.Clock = clk
		cfg.WrapBackend = func(b topk.Backend) topk.Backend {
			return slowBackend{Backend: b, clk: clk, delay: 10 * time.Millisecond}
		}
	})
	start := clk.Now()
	resp, payload := postRaw(t, ts, "/query", QueryRequest{
		SQL: "select name from db order by min(rating, closeness) stop after 5",
	})
	// The query is cut within one sampling period (timeout/8) and one
	// access of its deadline.
	if elapsed := clk.Now().Sub(start); elapsed > 60*time.Millisecond+60*time.Millisecond/8+10*time.Millisecond {
		t.Fatalf("deadline did not bound the query: %v", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline query status %d, want 200 degraded: %s", resp.StatusCode, payload)
	}
	var qr QueryResponse
	if err := json.Unmarshal(payload, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Truncated {
		t.Fatal("deadline answer not flagged truncated")
	}
	var sawDeadline bool
	for _, r := range qr.Degraded {
		if r == "query_deadline" {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatalf("degraded reasons %v carry no query_deadline entry", qr.Degraded)
	}
}
