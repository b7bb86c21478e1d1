package service

// TestSharedAccessGate is the PR's headline acceptance gate: concurrent
// identical queries served with sharing enabled must reach the sources at
// least min_access_reduction_factor (BENCH_share.json) fewer times than
// the same queries served unshared, while every per-query ledger stays
// exactly what an unshared run would have billed.

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"

	topk "repro"
	"repro/internal/access"
	"repro/internal/data"
)

type shareBaseline struct {
	Gate struct {
		MinAccessReduction float64 `json:"min_access_reduction_factor"`
	} `json:"gate"`
}

func loadShareBaseline(t *testing.T) shareBaseline {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_share.json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var sb shareBaseline
	if err := json.Unmarshal(raw, &sb); err != nil {
		t.Fatalf("BENCH_share.json unparseable: %v", err)
	}
	if sb.Gate.MinAccessReduction == 0 {
		t.Fatal("BENCH_share.json gate values incomplete")
	}
	return sb
}

// startE1Service serves the E1 reference workload (uniform n=1000 m=2
// seed=42, cs=cr=1) with or without the sharing layer.
func startE1Service(t *testing.T, sharing bool) (*httptest.Server, *Handler) {
	t.Helper()
	ds, err := data.Generate(data.Uniform, 1000, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(Config{
		Dataset:       ds,
		Columns:       []string{"p1", "p2"},
		Scenario:      access.Uniform(2, 1, 1),
		EnableSharing: sharing,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, h
}

func TestSharedAccessGate(t *testing.T) {
	sb := loadShareBaseline(t)
	// A fixed NC plan keeps all ledgers deterministic: the optimizer's
	// sharing discounts would legitimately change later queries' plans.
	req := QueryRequest{
		SQL:       "select name from db order by avg(p1, p2) stop after 10",
		Algorithm: "nc",
		H:         []float64{0.5, 0.5},
	}
	const queries = 8

	runAll := func(ts *httptest.Server) []*QueryResponse {
		resps := make([]*QueryResponse, queries)
		var wg sync.WaitGroup
		for i := 0; i < queries; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], _ = postQuery(t, ts, req)
			}(i)
		}
		wg.Wait()
		return resps
	}
	ledgerTotal := func(qr *QueryResponse) int {
		total := 0
		for _, c := range qr.SortedAccesses {
			total += c
		}
		for _, c := range qr.RandomAccesses {
			total += c
		}
		return total
	}

	// Unshared: every ledger entry is an access that reached the backend.
	tsOff, hOff := startE1Service(t, false)
	if hOff.Sharing() {
		t.Fatal("sharing should be off by default")
	}
	offResps := runAll(tsOff)
	unsharedBackend := 0
	for _, qr := range offResps {
		unsharedBackend += ledgerTotal(qr)
	}

	// Shared: ledgers must be identical, backend accesses collapse.
	tsOn, hOn := startE1Service(t, true)
	if !hOn.Sharing() {
		t.Fatal("sharing should be enabled")
	}
	onResps := runAll(tsOn)
	for i, qr := range onResps {
		if got, want := ledgerTotal(qr), ledgerTotal(offResps[i]); got != want {
			t.Errorf("query %d: shared ledger bills %d accesses, unshared oracle %d", i, got, want)
		}
	}
	st := hOn.ShareStats()
	sharedBackend := int(st.BackendSorted + st.BackendRandom)
	if sharedBackend == 0 {
		t.Fatal("sharing layer reports zero backend accesses")
	}
	factor := float64(unsharedBackend) / float64(sharedBackend)
	t.Logf("backend accesses: unshared=%d shared=%d (%.1fx reduction; stats %+v)",
		unsharedBackend, sharedBackend, factor, st)
	if factor < sb.Gate.MinAccessReduction {
		t.Errorf("access reduction = %.2fx, gate is >=%.1fx", factor, sb.Gate.MinAccessReduction)
	}
}

// TestServedPlanMatchesExplainUnderSharing extends the facade's
// TestExplainMatchesRunOnSharingEngine to the service: there is one
// discount site — the handler's engine, which finds the sharing layer in
// its stack — so once the layer is warm, Explain on that engine over the
// query's columns and a served "opt" query resolve the same plan-cache
// entry, and report the same plan. The layer is warmed by fixed-plan
// queries, which never plan, so the only entry in the cache is the one
// Explain puts there.
func TestServedPlanMatchesExplainUnderSharing(t *testing.T) {
	ts, h := startColumnService(t, 1000, 3, func(c *Config) {
		c.EnableSharing = true
		c.Scenario = access.Uniform(3, 1, 10)
	})
	cols := []int{2, 0}
	sql := columnSQL("avg", 10, cols...)
	for i := 0; i < 4; i++ {
		if _, resp := postQuery(t, ts, QueryRequest{SQL: sql, Algorithm: "nc", H: []float64{0.5, 0.5}}); resp.StatusCode != 200 {
			t.Fatalf("warm-up query %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if s, r := h.ShareStats().Discounts(); s == 0 && r == 0 {
		t.Fatalf("sharing layer not warm (%+v): the test would not exercise the discounts", h.ShareStats())
	}
	plan, err := h.eng.Explain(topk.Query{F: topk.Avg(), K: 10, Cols: cols}, topk.OptimizerConfig(h.cfg.Optimizer))
	if err != nil {
		t.Fatal(err)
	}
	served, resp := postQuery(t, ts, QueryRequest{SQL: sql})
	if resp.StatusCode != 200 || served.Plan == nil {
		t.Fatalf("served query: HTTP %d, plan %v", resp.StatusCode, served.Plan)
	}
	if got := h.PlanCacheStats(); got.Misses != 1 || got.Hits != 1 {
		t.Errorf("plan cache %+v: the served query must hit the entry Explain resolved (a second miss means the two priced different discounts)", got)
	}
	if !reflect.DeepEqual(served.Plan.H, plan.H) || !reflect.DeepEqual(served.Plan.Omega, plan.Omega) {
		t.Errorf("served plan H=%v Omega=%v, Explain on the same projection H=%v Omega=%v",
			served.Plan.H, served.Plan.Omega, plan.H, plan.Omega)
	}
}
