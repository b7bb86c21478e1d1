package service

// The handler keeps one engine per column projection: these tests pin what
// that buys (a warm second request), what bounds it (maxEngines, LRU), what
// it must not break (concurrent projections, cursors outliving their
// engine's eviction), and what it newly makes possible over HTTP (the
// contract guard's cross-query witness).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	topk "repro"
	"repro/internal/access"
	"repro/internal/data"
)

// startColumnService serves a uniform n x m dataset under columns p1..pm.
func startColumnService(t *testing.T, n, m int, mutate func(*Config)) (*httptest.Server, *Handler) {
	t.Helper()
	ds, err := data.Generate(data.Uniform, n, m, 11)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]string, m)
	for i := range cols {
		cols[i] = fmt.Sprintf("p%d", i+1)
	}
	cfg := Config{Dataset: ds, Columns: cols, Scenario: access.Uniform(m, 1, 1)}
	if mutate != nil {
		mutate(&cfg)
	}
	return startCursorService(t, cfg)
}

func columnSQL(fn string, k int, cols ...int) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = fmt.Sprintf("p%d", c+1)
	}
	return fmt.Sprintf("select name from db order by %s(%s) stop after %d", fn, strings.Join(names, ", "), k)
}

// orderedPairs lists every (a, b), a != b, over m columns: m*(m-1) distinct
// projections.
func orderedPairs(m int) [][]int {
	var out [][]int
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			if a != b {
				out = append(out, []int{a, b})
			}
		}
	}
	return out
}

// TestSecondRequestRunsWarm: identical requests share one engine, and a
// repeat — session, score table and queue drawn from that engine's pool,
// nothing projected — allocates under a tenth of the first one's bytes.
func TestSecondRequestRunsWarm(t *testing.T) {
	_, h := startColumnService(t, 10000, 3, nil)
	body := fmt.Sprintf(`{"sql":%q}`, columnSQL("min", 10, 2, 0))
	serve := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first := serve()
	eng := h.cachedProjection([]int{2, 0}, nil)
	// Best of a few: under -race sync.Pool drops a quarter of its Puts on
	// purpose, which makes the occasional follow-up request cold again.
	second := first
	for i := 0; i < 8; i++ {
		second = min(second, serve())
	}
	if eng == nil || h.cachedProjection([]int{2, 0}, nil) != eng || len(h.engines) != 1 {
		t.Fatalf("identical requests did not share one cached engine (%d cached)", len(h.engines))
	}
	if second*10 >= first {
		t.Errorf("a repeat request allocated %d bytes, the first %d: want under 10%%", second, first)
	}
}

// TestConcurrentProjections hammers several projections from many
// goroutines (run under -race): every answer equals the sequential one, and
// each projection ends up on exactly one engine.
func TestConcurrentProjections(t *testing.T) {
	ts, h := startColumnService(t, 500, 3, nil)
	queries := []string{
		columnSQL("min", 5, 0, 1, 2), columnSQL("avg", 8, 0, 1), columnSQL("min", 5, 1, 2),
		columnSQL("avg", 3, 2, 0), columnSQL("min", 12, 0, 1),
	}
	want := make([][]QueryItem, len(queries))
	for i, sql := range queries {
		qr, resp := postQuery(t, ts, QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", sql, resp.StatusCode, qr.Query)
		}
		want[i] = qr.Items
	}
	h.engMu.Lock()
	h.engines = nil // the concurrent phase builds them again, racing
	h.engMu.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				i := (g + r) % len(queries)
				qr, resp := postQuery(t, ts, QueryRequest{SQL: queries[i]})
				if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(qr.Items, want[i]) {
					t.Errorf("%s: HTTP %d, items %v, want %v", queries[i], resp.StatusCode, qr.Items, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if len(h.engines) != 4 {
		t.Errorf("%d engines cached for 4 distinct projections", len(h.engines))
	}
}

// TestEngineCacheIsBoundedLRU: more projections than maxEngines never grow
// the cache past the bound, the most recent stay, and an evicted projection
// is simply built again.
func TestEngineCacheIsBoundedLRU(t *testing.T) {
	ts, h := startColumnService(t, 200, 7, nil)
	pairs := orderedPairs(7) // 42 > maxEngines
	run := func(cols []int) {
		t.Helper()
		if qr, resp := postQuery(t, ts, QueryRequest{SQL: columnSQL("min", 3, cols...)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: HTTP %d: %s", cols, resp.StatusCode, qr.Query)
		}
	}
	for _, cols := range pairs {
		run(cols)
		if len(h.engines) > maxEngines {
			t.Fatalf("cache grew to %d engines, bound %d", len(h.engines), maxEngines)
		}
	}
	if len(h.engines) != maxEngines {
		t.Fatalf("cache holds %d engines after %d projections, want %d", len(h.engines), len(pairs), maxEngines)
	}
	if h.cachedProjection(pairs[0], nil) != nil {
		t.Error("the least recently used projection survived eviction")
	}
	recent := h.cachedProjection(pairs[len(pairs)-maxEngines], nil) // now the front
	if recent == nil {
		t.Fatal("a projection within the bound was evicted")
	}
	run(pairs[0]) // rebuilt on demand, evicting the oldest, not the one just touched
	if h.cachedProjection(pairs[len(pairs)-maxEngines], nil) != recent {
		t.Error("a lookup did not refresh the projection's recency")
	}
}

// TestCursorSurvivesEngineEviction: a cursor holds its engine, so paging
// continues — answers and bill identical to a one-shot run of the total
// depth — after the cache has dropped that engine.
func TestCursorSurvivesEngineEviction(t *testing.T) {
	ts, h := startColumnService(t, 200, 7, nil)
	req := QueryRequest{SQL: columnSQL("min", 4, 5, 6), Algorithm: "nc", H: []float64{0.5, 0.5}}
	req.Cursor = true
	opened, resp := postQuery(t, ts, req)
	if resp.StatusCode != http.StatusOK || opened.Cursor == "" {
		t.Fatalf("open: HTTP %d: %s", resp.StatusCode, opened.Query)
	}
	for _, cols := range orderedPairs(6) { // 30 projections, none of them (5, 6)
		postQuery(t, ts, QueryRequest{SQL: columnSQL("min", 3, cols...)})
	}
	postQuery(t, ts, QueryRequest{SQL: columnSQL("min", 3, 0, 1, 2)})
	postQuery(t, ts, QueryRequest{SQL: columnSQL("min", 3, 2, 1, 0)})
	if h.cachedProjection([]int{5, 6}, nil) != nil {
		t.Fatal("the cursor's engine is still cached; the test evicted nothing")
	}
	page, status := postNext(t, ts, "/query/next", NextRequest{Cursor: opened.Cursor, K: 6})
	if status != http.StatusOK {
		t.Fatalf("next after eviction: HTTP %d: %s", status, page.Query)
	}
	req.Cursor = false
	req.SQL = columnSQL("min", 10, 5, 6)
	oneShot, _ := postQuery(t, ts, req)
	if got := append(opened.Items, page.Items...); !reflect.DeepEqual(got, oneShot.Items) {
		t.Errorf("paged answers %v, one-shot %v", got, oneShot.Items)
	}
	if page.Cost != oneShot.Cost {
		t.Errorf("cumulative cost %v after eviction, one-shot %v", page.Cost, oneShot.Cost)
	}
}

// halvedProbes lies on random accesses to one predicate, consistently: each
// probe returns half the true score, which no single query can refute.
type halvedProbes struct {
	topk.Backend
	pred int
}

func (b halvedProbes) Random(ctx context.Context, pred, obj int) (float64, error) {
	s, err := b.Backend.Random(ctx, pred, obj)
	if pred == b.pred {
		s /= 2
	}
	return s, err
}

// TestContractGuardWitnessAcrossRequests: the guard's probe-vs-sighting
// witness lives in the engine, and the engine now outlives the request. The
// first query probes p2 and records the lies; the second, on the same
// projection, drains p2's sorted stream, whose true scores contradict them.
func TestContractGuardWitnessAcrossRequests(t *testing.T) {
	ts, _ := startColumnService(t, 40, 2, func(cfg *Config) {
		cfg.ContractGuard = true
		cfg.WrapBackend = func(b topk.Backend, cols []int) topk.Backend { return halvedProbes{Backend: b, pred: 1} }
	})
	sql := columnSQL("min", 3, 0, 1)
	post := func(h []float64) *QueryResponse {
		t.Helper()
		resp, payload := postRaw(t, ts, "/query?trace=1", QueryRequest{SQL: sql, Algorithm: "nc", H: h})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, payload)
		}
		var qr QueryResponse
		if err := json.Unmarshal(payload, &qr); err != nil {
			t.Fatal(err)
		}
		return &qr
	}
	if first := post([]float64{0.3, 1}); len(first.Trace.ContractViolations) != 0 {
		t.Fatalf("a consistent probe lie must be undetectable without a witness: %v", first.Trace.ContractViolations)
	}
	second := post([]float64{0.3, 0.3})
	found := false
	for _, v := range second.Trace.ContractViolations {
		found = found || v.Reason == "inconsistent"
	}
	if !found {
		t.Fatalf("second query on the projection reported no inconsistent violation: %v", second.Trace.ContractViolations)
	}
}
