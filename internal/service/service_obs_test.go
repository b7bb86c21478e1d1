package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	topk "repro"
	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/obs"
)

// startObsService builds a service with observability knobs under test
// control and returns the handler alongside the test server.
func startObsService(t *testing.T, mutate func(*Config)) (*httptest.Server, *Handler) {
	t.Helper()
	bench, _, err := data.Restaurants(150, 3)
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

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func postTo(t *testing.T, ts *httptest.Server, path string, req QueryRequest) (*QueryResponse, int) {
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
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return &qr, resp.StatusCode
}

// TestServiceMetricsReflectQueries checks that /metrics is a faithful view
// of the traffic just served: query status counters, engine access
// counters, and the plan-cache hit/miss split.
func TestServiceMetricsReflectQueries(t *testing.T) {
	ts, _ := startObsService(t, nil)
	sql := "select name from db order by min(rating, closeness) stop after 5"

	if _, code := postTo(t, ts, "/query", QueryRequest{SQL: sql}); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	out := scrapeMetrics(t, ts)
	for _, line := range []string{
		`topk_queries_total{status="ok"} 1`,
		`topk_plan_cache_requests_total{result="miss"} 1`,
		`topk_plan_cache_requests_total{result="hit"} 0`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("after first query, missing %q in:\n%s", line, out)
		}
	}
	if !strings.Contains(out, `topk_accesses_total{kind="sorted"}`) ||
		strings.Contains(out, `topk_accesses_total{kind="sorted"} 0`) {
		t.Error("engine sorted accesses not reflected in /metrics")
	}
	if !strings.Contains(out, "topk_query_seconds_count 1") {
		t.Error("query latency histogram missing the run")
	}

	// The repeat hits the plan cache; a broken query bumps the error count.
	if _, code := postTo(t, ts, "/query", QueryRequest{SQL: sql}); code != http.StatusOK {
		t.Fatal("repeat query failed")
	}
	if _, code := postTo(t, ts, "/query", QueryRequest{SQL: "not sql"}); code == http.StatusOK {
		t.Fatal("malformed SQL should fail")
	}
	out = scrapeMetrics(t, ts)
	for _, line := range []string{
		`topk_queries_total{status="ok"} 2`,
		`topk_queries_total{status="error"} 1`,
		`topk_plan_cache_requests_total{result="hit"} 1`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("after repeat+error, missing %q in:\n%s", line, out)
		}
	}
}

// TestServiceTraceParam checks the ?trace=1 contract: a trace rides along
// with the response, conserving the response's own access counts, and its
// absence is the default.
func TestServiceTraceParam(t *testing.T) {
	ts, _ := startObsService(t, nil)
	sql := "select name from db order by min(rating, closeness) stop after 5"

	plain, code := postTo(t, ts, "/query", QueryRequest{SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if plain.Trace != nil {
		t.Error("untraced query carried a trace")
	}

	traced, code := postTo(t, ts, "/query?trace=1", QueryRequest{SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if traced.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	for i := range traced.SortedAccesses {
		var got int
		if i < len(traced.Trace.SortedAccesses) {
			got = traced.Trace.SortedAccesses[i]
		}
		if got != traced.SortedAccesses[i] {
			t.Errorf("trace sorted[%d] = %d, response ledger %d", i, got, traced.SortedAccesses[i])
		}
	}
	phases := make(map[string]bool)
	for _, p := range traced.Trace.Phases {
		phases[string(p.Phase)] = true
	}
	for _, want := range []string{"parse", "plan", "execute"} {
		if !phases[want] {
			t.Errorf("trace phases %v missing %q", traced.Trace.Phases, want)
		}
	}
	if traced.Trace.PlanCacheHit == nil || !*traced.Trace.PlanCacheHit {
		t.Errorf("second identical query should report a plan-cache hit, got %v", traced.Trace.PlanCacheHit)
	}
}

// TestServiceTraceNamesPlanSource: a user who nudges their weights between
// queries misses the plan cache, but the miss warm-starts from their
// previous plan, and ?trace=1 and /metrics say so with the plan's
// estimator runs; a repeat is a hit that names the runs it saved.
func TestServiceTraceNamesPlanSource(t *testing.T) {
	ts, _ := startObsService(t, nil)
	queries := []struct{ sql, source string }{
		{"select name from db order by wsum(0.3*rating, 0.7*closeness) stop after 5", "cold"},
		{"select name from db order by wsum(0.301*rating, 0.7*closeness) stop after 5", "warm"},
		{"select name from db order by wsum(0.301*rating, 0.7*closeness) stop after 5", "hit"},
	}
	var warmEvals int
	for i, q := range queries {
		traced, code := postTo(t, ts, "/query?trace=1", QueryRequest{SQL: q.sql})
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		tr := traced.Trace
		if tr == nil || tr.PlanSource != q.source || tr.PlanEvals <= 0 {
			t.Fatalf("query %d: trace %+v, want planSource %q with its evals", i, tr, q.source)
		}
		switch q.source {
		case "warm":
			warmEvals = tr.PlanEvals
			if tr.EstimatorEvals != tr.PlanEvals {
				t.Errorf("warm miss ran %d evals for a plan of %d", tr.EstimatorEvals, tr.PlanEvals)
			}
		case "hit":
			if tr.PlanEvals != warmEvals || tr.EstimatorEvals != 0 {
				t.Errorf("hit reports %d plan evals after running %d, want the warm plan's %d and none", tr.PlanEvals, tr.EstimatorEvals, warmEvals)
			}
		}
	}
	out := scrapeMetrics(t, ts)
	for _, line := range []string{
		`topk_plan_cache_requests_total{result="miss"} 1`,
		`topk_plan_cache_requests_total{result="warm"} 1`,
		`topk_plan_cache_requests_total{result="hit"} 1`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in /metrics", line)
		}
	}
}

// flakyBackend is a topk.Backend whose accesses fail when down.
type flakyBackend struct {
	inner topk.Backend
	down  bool
}

func (f *flakyBackend) N() int { return f.inner.N() }
func (f *flakyBackend) M() int { return f.inner.M() }
func (f *flakyBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	if f.down {
		return 0, 0, fmt.Errorf("source unreachable")
	}
	return f.inner.Sorted(ctx, pred, rank)
}
func (f *flakyBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	if f.down {
		return 0, fmt.Errorf("source unreachable")
	}
	return f.inner.Random(ctx, pred, obj)
}

// TestServiceHealthReadiness checks both faces of /healthz: 200 while the
// probe backend answers, 503 the moment it stops.
func TestServiceHealthReadiness(t *testing.T) {
	bench, _, err := data.Restaurants(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	fb := &flakyBackend{inner: topk.DataBackend(bench.Dataset)}
	ts, _ := startObsService(t, func(cfg *Config) {
		cfg.HealthBackend = fb
		cfg.HealthTimeout = 200 * time.Millisecond
	})

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy probe: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	fb.down = true
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("down probe status = %d, want 503", resp.StatusCode)
	}
	var ep errPayload
	if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil || !strings.Contains(ep.Error, "unreachable") {
		t.Errorf("503 body should name the failure: %+v (%v)", ep, err)
	}
}

// TestServicePprofGating checks that the profiling endpoints exist exactly
// when the operator opted in.
func TestServicePprofGating(t *testing.T) {
	off, _ := startObsService(t, nil)
	resp, err := off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on, _ := startObsService(t, func(cfg *Config) { cfg.EnablePprof = true })
	resp, err = on.Client().Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof on: status %d body %.80q", resp.StatusCode, body)
	}
}

// TestServiceSlowQueryLog checks that queries beyond the threshold are
// logged and counted; with a 1ns threshold every query qualifies.
func TestServiceSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := log.New(lockedWriter{w: &buf, mu: &mu}, "", 0)
	ts, h := startObsService(t, func(cfg *Config) {
		cfg.SlowQueryThreshold = time.Nanosecond
		cfg.Logger = logger
	})
	if _, code := postTo(t, ts, "/query", QueryRequest{
		SQL: "select name from db order by min(rating, closeness) stop after 3",
	}); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow query") || !strings.Contains(logged, "stop after 3") || !strings.Contains(logged, "planSample=dummy(50)") {
		t.Errorf("slow-query log = %q", logged)
	}
	if got := h.reg.Counter("topk_slow_queries_total", "").Value(); got != 1 {
		t.Errorf("topk_slow_queries_total = %d, want 1", got)
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestServiceConcurrentQueriesAndScrapes hammers /query (mixed cache hits
// and misses across two statements) while /metrics scrapes race along.
// Under -race this is the proof that the plan cache, the registry, and the
// shared metrics observer tolerate concurrent requests; afterwards the
// counters must account for every request exactly.
func TestServiceConcurrentQueriesAndScrapes(t *testing.T) {
	ts, h := startObsService(t, nil)
	sqls := []string{
		"select name from db order by min(rating, closeness) stop after 5",
		"select name from db order by avg(rating, closeness) stop after 3",
	}
	const workers = 6
	const perWorker = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body, _ := json.Marshal(QueryRequest{SQL: sqls[(w+i)%len(sqls)]})
				resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()

				mresp, err := ts.Client().Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					continue
				}
				_, _ = io.Copy(io.Discard, mresp.Body)
				mresp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	total := workers * perWorker
	if got := h.reg.Counter("topk_queries_total", "", obs.L("status", "ok")).Value(); got != int64(total) {
		t.Errorf("topk_queries_total ok = %d, want %d", got, total)
	}
	out := scrapeMetrics(t, ts)
	if !strings.Contains(out, fmt.Sprintf("topk_query_seconds_count %d", total)) {
		t.Errorf("latency histogram lost observations:\n%s", out)
	}
	// Every "opt" query performs exactly one plan-cache lookup; racing
	// first-misses on the same statement mean the hit count is only bounded,
	// but hits+misses must account for every request.
	hits := h.reg.Counter("topk_plan_cache_requests_total", "", obs.L("result", "hit")).Value()
	misses := h.reg.Counter("topk_plan_cache_requests_total", "", obs.L("result", "miss")).Value()
	if hits+misses != int64(total) {
		t.Errorf("plan cache lookups = %d hits + %d misses, want %d total", hits, misses, total)
	}
	if hits < 1 || misses < int64(len(sqls)) {
		t.Errorf("plan cache split implausible: %d hits / %d misses", hits, misses)
	}
}
