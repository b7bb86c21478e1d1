package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	topk "repro"
	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/score"
)

// currentHandler is the handler behind the most recently started test
// service, for tests inspecting internals such as the plan cache.
var currentHandler *Handler

func startService(t *testing.T) (*httptest.Server, *data.Dataset) {
	t.Helper()
	bench, _, err := data.Restaurants(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(Config{
		Dataset:  bench.Dataset,
		Columns:  bench.PredicateNames,
		Scenario: access.Uniform(2, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	currentHandler = h
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, bench.Dataset
}

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (*QueryResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var ep errPayload
		_ = json.NewDecoder(resp.Body).Decode(&ep)
		return &QueryResponse{Query: ep.Error}, resp
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return &qr, resp
}

func TestServiceMetaAndHealth(t *testing.T) {
	ts, _ := startService(t)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
	r2, err := ts.Client().Get(ts.URL + "/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var meta metaPayload
	if err := json.NewDecoder(r2.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.N != 200 || meta.M != 2 || meta.Columns[0] != "rating" {
		t.Errorf("meta = %+v", meta)
	}
}

func TestServiceQueryOptimized(t *testing.T) {
	ts, ds := startService(t)
	qr, resp := postQuery(t, ts, QueryRequest{
		SQL: "select name from db order by min(rating, closeness) stop after 5",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, qr.Query)
	}
	if len(qr.Items) != 5 || qr.Plan == nil || qr.Cost <= 0 {
		t.Fatalf("response = %+v", qr)
	}
	oracle := ds.TopK(score.Min().Eval, 5)
	for i, it := range qr.Items {
		if math.Abs(it.Score-oracle[i].Score) > 1e-9 {
			t.Fatalf("rank %d: %g vs oracle %g", i, it.Score, oracle[i].Score)
		}
		if !strings.HasPrefix(it.Label, "restaurant-") {
			t.Errorf("label = %q", it.Label)
		}
	}
}

func TestServiceQueryBindsPredicateOrder(t *testing.T) {
	ts, ds := startService(t)
	// Reversed predicate order in the SQL must still answer correctly.
	qr, resp := postQuery(t, ts, QueryRequest{
		SQL:       "select name from db order by min(closeness, rating) stop after 3",
		Algorithm: "TA",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, qr.Query)
	}
	oracle := ds.TopK(score.Min().Eval, 3)
	for i, it := range qr.Items {
		if math.Abs(it.Score-oracle[i].Score) > 1e-9 {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}

func TestServiceBudgetAndEpsilon(t *testing.T) {
	ts, _ := startService(t)
	qr, resp := postQuery(t, ts, QueryRequest{
		SQL:       "select name from db order by avg(rating, closeness) stop after 5",
		Algorithm: "nc",
		H:         []float64{0.5, 0.5},
		Budget:    10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget query failed: %s", qr.Query)
	}
	if !qr.Truncated || qr.Cost > 10 {
		t.Errorf("budgeted response = %+v", qr)
	}
	qr2, resp2 := postQuery(t, ts, QueryRequest{
		SQL:       "select name from db order by avg(rating, closeness) stop after 5",
		H:         []float64{0.5, 0.5},
		Epsilon:   0.4,
		Algorithm: "nc",
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("epsilon query failed: %s", qr2.Query)
	}
	if len(qr2.Items) != 5 {
		t.Errorf("epsilon response = %+v", qr2)
	}
}

func TestServiceParallel(t *testing.T) {
	ts, _ := startService(t)
	qr, resp := postQuery(t, ts, QueryRequest{
		SQL:      "select name from db order by min(rating, closeness) stop after 4",
		Parallel: 4,
	})
	if resp.StatusCode != http.StatusOK || len(qr.Items) != 4 {
		t.Fatalf("parallel query: %d %+v", resp.StatusCode, qr)
	}
}

func TestServiceErrors(t *testing.T) {
	ts, _ := startService(t)
	cases := []struct {
		req  QueryRequest
		frag string
	}{
		{QueryRequest{SQL: "not sql"}, "expected"},
		{QueryRequest{SQL: "select x from db order by min(rating, price) stop after 2"}, "not found"},
		{QueryRequest{SQL: "select x from db order by min(rating) stop after 2", Algorithm: "bogus"}, "unknown algorithm"},
		{QueryRequest{SQL: "select x from db order by min(rating) stop after 2", Algorithm: "nc"}, "requires h"},
	}
	for _, c := range cases {
		qr, resp := postQuery(t, ts, c.req)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("request %+v should fail", c.req)
			continue
		}
		if !strings.Contains(qr.Query, c.frag) {
			t.Errorf("error %q lacks %q", qr.Query, c.frag)
		}
	}
	// Non-POST and malformed JSON.
	resp, err := ts.Client().Get(ts.URL + "/query")
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	r2, err := ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader("{"))
	if err != nil || r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %v %v", r2.StatusCode, err)
	}
	r2.Body.Close()
}

func TestNewHandlerValidation(t *testing.T) {
	bench, _, err := data.Restaurants(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHandler(Config{Columns: []string{"a"}}); err == nil {
		t.Error("nil dataset should fail")
	}
	if _, err := NewHandler(Config{Dataset: bench.Dataset, Columns: []string{"a"}}); err == nil {
		t.Error("column count mismatch should fail")
	}
	if _, err := NewHandler(Config{Dataset: bench.Dataset, Columns: bench.PredicateNames, Scenario: topk.UniformScenario(3, 1, 1)}); err == nil {
		t.Error("scenario mismatch should fail")
	}
}

func TestServicePlanCache(t *testing.T) {
	ts, _ := startService(t)
	h := currentHandler
	sql := "select name from db order by min(rating, closeness) stop after 5"
	first, resp := postQuery(t, ts, QueryRequest{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %s", first.Query)
	}
	if h.PlanCacheStats().Hits != 0 {
		t.Fatalf("hits = %d before any repeat", h.PlanCacheStats().Hits)
	}
	second, resp2 := postQuery(t, ts, QueryRequest{SQL: sql})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second: %s", second.Query)
	}
	if h.PlanCacheStats().Hits != 1 {
		t.Errorf("hits = %d after repeat", h.PlanCacheStats().Hits)
	}
	// Same answers and cost either way.
	if second.Cost != first.Cost || len(second.Items) != len(first.Items) {
		t.Errorf("cached plan diverged: %+v vs %+v", second, first)
	}
	// A different query misses the cache.
	postQuery(t, ts, QueryRequest{SQL: "select name from db order by avg(rating, closeness) stop after 5"})
	if h.PlanCacheStats().Hits != 1 {
		t.Errorf("different query should not hit: %d", h.PlanCacheStats().Hits)
	}
}
