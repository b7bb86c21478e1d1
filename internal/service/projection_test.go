package service

// The handler keeps one engine over its database, and a query's columns
// ride on the query: these tests pin what that buys (a request over new
// columns runs warm), what it must not break (concurrent column lists), and
// what it newly makes possible over HTTP (the contract guard's witness
// across requests and across column lists).

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

// TestSecondRequestRunsWarm: the handler's one engine serves every column
// list, so a first request over (p3, p1) warms a later one over (p1, p2):
// its session, score table and queue come from the same pool, and it
// allocates under a tenth of the first one's bytes. Every later request
// names a column list not served before, so an engine per column list
// would start each of them cold.
func TestSecondRequestRunsWarm(t *testing.T) {
	_, h := startColumnService(t, 10000, 3, nil)
	serve := func(cols ...int) uint64 {
		body := fmt.Sprintf(`{"sql":%q}`, columnSQL("min", 10, cols...))
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
	first := serve(2, 0)
	// (p1, p2) first; the others only back it up: under -race sync.Pool
	// drops a quarter of its Puts on purpose, which makes the occasional
	// request cold again.
	later := first
	for _, cols := range [][]int{{0, 1}, {1, 2}, {1, 0}, {2, 1}, {0, 2}} {
		later = min(later, serve(cols...))
	}
	if later*10 >= first {
		t.Errorf("a request over new columns allocated %d bytes, the first %d: want under 10%%", later, first)
	}
}

// TestConcurrentProjections hammers several column lists from many
// goroutines (run under -race): every answer equals the sequential one.
func TestConcurrentProjections(t *testing.T) {
	ts, _ := startColumnService(t, 500, 3, nil)
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
// witness lives in the handler's one engine, on database predicates, so it
// outlives the request and spans column lists. The first query probes p2
// and records the lies; the second — on the same columns, or on (p2, p3) —
// drains p2's sorted stream, whose true scores contradict them.
func TestContractGuardWitnessAcrossRequests(t *testing.T) {
	type run struct {
		cols []int
		h    []float64
	}
	rows := []struct {
		name          string
		m             int
		first, second run
	}{
		{"same-columns", 2, run{[]int{0, 1}, []float64{0.3, 1}}, run{[]int{0, 1}, []float64{0.3, 0.3}}},
		{"cross-columns", 3, run{[]int{0, 1}, []float64{0.3, 1}}, run{[]int{1, 2}, []float64{0.3, 0.3}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ts, _ := startColumnService(t, 40, row.m, func(cfg *Config) {
				cfg.ContractGuard = true
				cfg.WrapBackend = func(b topk.Backend) topk.Backend { return halvedProbes{Backend: b, pred: 1} }
			})
			post := func(r run) *QueryResponse {
				t.Helper()
				resp, payload := postRaw(t, ts, "/query?trace=1", QueryRequest{SQL: columnSQL("min", 3, r.cols...), Algorithm: "nc", H: r.h})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("HTTP %d: %s", resp.StatusCode, payload)
				}
				var qr QueryResponse
				if err := json.Unmarshal(payload, &qr); err != nil {
					t.Fatal(err)
				}
				return &qr
			}
			if first := post(row.first); len(first.Trace.ContractViolations) != 0 {
				t.Fatalf("a consistent probe lie must be undetectable without a witness: %v", first.Trace.ContractViolations)
			}
			second := post(row.second)
			found := false
			for _, v := range second.Trace.ContractViolations {
				found = found || v.Reason == "inconsistent"
			}
			if !found {
				t.Fatalf("second query reported no inconsistent violation: %v", second.Trace.ContractViolations)
			}
		})
	}
}
