package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	topk "repro"
	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/kit/kittest"
)

// startCursorService boots a service with the given config defaults filled
// in (restaurants dataset, uniform scenario) and tears the cursor
// subsystem down with the server, leaving no goroutine behind.
func startCursorService(t *testing.T, cfg Config) (*httptest.Server, *Handler) {
	t.Helper()
	kittest.NoLeaks(t)
	bench, _, err := data.Restaurants(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dataset == nil {
		cfg.Dataset = bench.Dataset
		cfg.Columns = bench.PredicateNames
	}
	if cfg.Scenario.Preds == nil {
		cfg.Scenario = access.Uniform(2, 1, 2)
	}
	h, err := NewHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})
	return ts, h
}

func postNext(t *testing.T, ts *httptest.Server, path string, req NextRequest) (*QueryResponse, int) {
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
	if resp.StatusCode != http.StatusOK {
		var ep errPayload
		_ = json.NewDecoder(resp.Body).Decode(&ep)
		return &QueryResponse{Query: ep.Error}, resp.StatusCode
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return &qr, resp.StatusCode
}

const cursorSQL = "select name from db order by min(rating, closeness) stop after 4"

// fixedCursorReq pins the NC configuration so paged and one-shot runs use
// the identical plan regardless of k — the precondition for comparing them.
func fixedCursorReq(sql string) QueryRequest {
	return QueryRequest{SQL: sql, Algorithm: "nc", H: []float64{0.5, 0.5}, Cursor: true}
}

// TestServiceCursorPagingMatchesOneShot deepens a server-side cursor page
// by page and checks the paged answers and the cumulative bill against a
// one-shot query of the total depth.
func TestServiceCursorPagingMatchesOneShot(t *testing.T) {
	ts, h := startCursorService(t, Config{})

	first, _ := postQuery(t, ts, fixedCursorReq(cursorSQL))
	if first.Cursor == "" || first.Page != 1 {
		t.Fatalf("open response missing cursor fields: %+v", first)
	}
	if len(first.Items) != 4 {
		t.Fatalf("first page has %d items, want the query's stop-after 4", len(first.Items))
	}
	items := append([]QueryItem(nil), first.Items...)
	last := first
	for page := 2; page <= 3; page++ {
		qr, code := postNext(t, ts, "/query/next", NextRequest{Cursor: first.Cursor, K: 4})
		if code != http.StatusOK {
			t.Fatalf("page %d: status %d (%s)", page, code, qr.Query)
		}
		if qr.Page != page || qr.Cursor != first.Cursor {
			t.Fatalf("page %d response says page %d cursor %q", page, qr.Page, qr.Cursor)
		}
		if qr.Cost < last.Cost {
			t.Fatalf("cumulative cost went down across pages: %g then %g", last.Cost, qr.Cost)
		}
		items = append(items, qr.Items...)
		last = qr
	}

	oneShot, _ := postQuery(t, ts, QueryRequest{
		SQL:       "select name from db order by min(rating, closeness) stop after 12",
		Algorithm: "nc", H: []float64{0.5, 0.5},
	})
	if len(items) != len(oneShot.Items) {
		t.Fatalf("paged total %d items, one-shot %d", len(items), len(oneShot.Items))
	}
	for i := range items {
		if items[i] != oneShot.Items[i] {
			t.Errorf("item %d differs: paged %+v one-shot %+v", i, items[i], oneShot.Items[i])
		}
	}
	if last.Cost != oneShot.Cost {
		t.Errorf("cumulative paged cost %g, one-shot cost %g", last.Cost, oneShot.Cost)
	}
	for i := range oneShot.SortedAccesses {
		if last.SortedAccesses[i] != oneShot.SortedAccesses[i] || last.RandomAccesses[i] != oneShot.RandomAccesses[i] {
			t.Errorf("pred %d: paged accesses (%d,%d), one-shot (%d,%d)", i,
				last.SortedAccesses[i], last.RandomAccesses[i],
				oneShot.SortedAccesses[i], oneShot.RandomAccesses[i])
		}
	}

	// A k=0 poll is free metadata: no new items, bill unchanged.
	poll, _ := postNext(t, ts, "/query/next", NextRequest{Cursor: first.Cursor})
	if len(poll.Items) != 0 || poll.Cost != last.Cost {
		t.Errorf("k=0 poll changed state: %+v", poll)
	}

	if got := h.cursorPages.Value(); got < 4 {
		t.Errorf("topk_cursor_pages_total = %d, want >= 4", got)
	}
	if h.OpenCursors() != 1 || h.cursorOpenG.Value() != 1 {
		t.Errorf("open cursors: registry %d gauge %d, want 1", h.OpenCursors(), h.cursorOpenG.Value())
	}
}

// TestServiceCursorScoreRange pages by score threshold and checks the tau
// page against ordinal paging on a parallel cursor.
func TestServiceCursorScoreRange(t *testing.T) {
	ts, _ := startCursorService(t, Config{})

	ord, _ := postQuery(t, ts, fixedCursorReq(cursorSQL))
	more, code := postNext(t, ts, "/query/next", NextRequest{Cursor: ord.Cursor, K: 6})
	if code != http.StatusOK {
		t.Fatalf("ordinal page: %d (%s)", code, more.Query)
	}
	all := append(append([]QueryItem(nil), ord.Items...), more.Items...)
	tau := all[len(all)-1].Score

	rng, _ := postQuery(t, ts, fixedCursorReq(cursorSQL))
	page, code := postNext(t, ts, "/query/next", NextRequest{Cursor: rng.Cursor, Tau: &tau})
	if code != http.StatusOK {
		t.Fatalf("score-range page: %d (%s)", code, page.Query)
	}
	got := append(append([]QueryItem(nil), rng.Items...), page.Items...)
	if len(got) != len(all) {
		t.Fatalf("score-range reached %d items for tau=%g, ordinal %d", len(got), tau, len(all))
	}
	for i := range got {
		if got[i] != all[i] {
			t.Errorf("item %d differs: range %+v ordinal %+v", i, got[i], all[i])
		}
		if got[i].Score < tau {
			t.Errorf("score-range emitted %+v below tau %g", got[i], tau)
		}
	}

	// Baseline cursors are ordinal-only: tau on a TA cursor is a 400.
	ta, _ := postQuery(t, ts, QueryRequest{SQL: cursorSQL, Algorithm: "TA", Cursor: true})
	if ta.Cursor == "" {
		t.Fatalf("TA cursor did not open: %+v", ta)
	}
	if _, code := postNext(t, ts, "/query/next", NextRequest{Cursor: ta.Cursor, Tau: &tau}); code != http.StatusBadRequest {
		t.Errorf("tau on a TA cursor: status %d, want 400", code)
	}
	if qr, code := postNext(t, ts, "/query/next", NextRequest{Cursor: ta.Cursor, K: 3}); code != http.StatusOK || len(qr.Items) != 3 {
		t.Errorf("TA ordinal page after refused tau: %d %+v", code, qr)
	}
}

// TestServiceCursorValidation covers the request-shape failure modes.
func TestServiceCursorValidation(t *testing.T) {
	ts, _ := startCursorService(t, Config{})

	bad, resp := postQuery(t, ts, QueryRequest{SQL: cursorSQL, Cursor: true, Parallel: 4})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cursor+parallel: %d (%s)", resp.StatusCode, bad.Query)
	}
	if _, resp := postQuery(t, ts, QueryRequest{SQL: cursorSQL, Cursor: true, Algorithm: "FA"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cursor+FA: %d, want 400", resp.StatusCode)
	}
	if _, code := postNext(t, ts, "/query/next", NextRequest{Cursor: "nope", K: 1}); code != http.StatusNotFound {
		t.Errorf("unknown cursor: %d, want 404", code)
	}
	if _, code := postNext(t, ts, "/query/next", NextRequest{K: 1}); code != http.StatusBadRequest {
		t.Errorf("missing cursor id: %d, want 400", code)
	}
	open, _ := postQuery(t, ts, fixedCursorReq(cursorSQL))
	if _, code := postNext(t, ts, "/query/next", NextRequest{Cursor: open.Cursor, K: -1}); code != http.StatusBadRequest {
		t.Errorf("negative k: %d, want 400", code)
	}
	r, err := ts.Client().Get(ts.URL + "/query/next")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query/next: %d, want 405", r.StatusCode)
	}
}

// TestServiceCursorCloseAndExpiry exercises the explicit close, the
// reaper's TTL sweep on the handler's clock, and the close/expire
// accounting.
func TestServiceCursorCloseAndExpiry(t *testing.T) {
	clk := kittest.NewClock()
	ts, h := startCursorService(t, Config{Breaker: topk.BreakerConfig{Clock: clk}})

	a, _ := postQuery(t, ts, fixedCursorReq(cursorSQL))
	b, _ := postQuery(t, ts, fixedCursorReq(cursorSQL))
	if h.OpenCursors() != 2 {
		t.Fatalf("open cursors = %d, want 2", h.OpenCursors())
	}

	ack, code := postNext(t, ts, "/query/next", NextRequest{Cursor: a.Cursor, Close: true})
	if code != http.StatusOK || !ack.Closed || ack.Cursor != a.Cursor {
		t.Fatalf("close ack: %d %+v", code, ack)
	}
	if _, code := postNext(t, ts, "/query/next", NextRequest{Cursor: a.Cursor, K: 1}); code != http.StatusNotFound {
		t.Errorf("page after close: %d, want 404", code)
	}

	// Nothing is idle a TTL long yet; once b is, the reaper takes it.
	if n := h.expireIdle(); n != 0 {
		t.Fatalf("expireIdle reaped %d cursors before the TTL passed, want 0", n)
	}
	clk.Advance(h.cfg.CursorTTL)
	if _, code := postNext(t, ts, "/query/next", NextRequest{Cursor: b.Cursor, K: 1}); code != http.StatusNotFound {
		t.Errorf("page after expiry: %d, want 404", code)
	}
	if h.OpenCursors() != 0 || h.cursorOpenG.Value() != 0 {
		t.Errorf("after teardown: registry %d gauge %d, want 0", h.OpenCursors(), h.cursorOpenG.Value())
	}
	if h.cursorClosed.Value() != 1 || h.cursorExpired.Value() != 1 {
		t.Errorf("closed=%d expired=%d, want 1 and 1", h.cursorClosed.Value(), h.cursorExpired.Value())
	}
}

// TestCursorExpiresAtItsTTL: a cursor last touched at T is open at
// T+TTL−1ns and expired at T+TTL, by the reaper alone — which re-arms for
// the cursor's last use, not for when it was opened.
func TestCursorExpiresAtItsTTL(t *testing.T) {
	const ttl = time.Minute
	clk := kittest.NewClock()
	ts, h := startCursorService(t, Config{CursorTTL: ttl, Breaker: topk.BreakerConfig{Clock: clk}})
	open, _ := postQuery(t, ts, fixedCursorReq(cursorSQL))
	clk.Advance(ttl / 2)
	if _, code := postNext(t, ts, "/query/next", NextRequest{Cursor: open.Cursor, K: 1}); code != http.StatusOK {
		t.Fatalf("page at T: %d", code)
	}
	clk.Advance(ttl - time.Nanosecond)
	if h.OpenCursors() != 1 || h.cursorExpired.Value() != 0 {
		t.Fatalf("at T+TTL-1ns: %d open, %d expired; want 1 and 0", h.OpenCursors(), h.cursorExpired.Value())
	}
	clk.Advance(time.Nanosecond)
	if h.OpenCursors() != 0 || h.cursorExpired.Value() != 1 {
		t.Fatalf("at T+TTL: %d open, %d expired; want 0 and 1", h.OpenCursors(), h.cursorExpired.Value())
	}
}

// TestReaperStopsWithClose: once Handler.Close returns, no timer of the
// handler is left on its clock, and advancing it past any TTL fires
// nothing and starts nothing (startCursorService checks for goroutines).
func TestReaperStopsWithClose(t *testing.T) {
	clk := kittest.NewClock()
	ts, h := startCursorService(t, Config{Breaker: topk.BreakerConfig{Clock: clk}})
	if _, resp := postQuery(t, ts, fixedCursorReq(cursorSQL)); resp.StatusCode != http.StatusOK {
		t.Fatalf("open: %d", resp.StatusCode)
	}
	// The query's and the accesses' deadline watchdogs sample once more,
	// find their deadlines idle and stop; the reaper stays armed.
	clk.Advance(h.cfg.QueryTimeout)
	if n := clk.Pending(); n != 1 {
		t.Fatalf("%d timers pending with one cursor open and no request in flight, want the reaper alone", n)
	}
	h.Close()
	if n := clk.Pending(); n != 0 {
		t.Fatalf("%d timers pending after Close, want 0", n)
	}
	clk.Advance(10 * h.cfg.CursorTTL)
	if n := clk.Pending(); n != 0 || h.cursorExpired.Value() != 0 {
		t.Fatalf("after Close and 10 TTLs: %d timers pending, %d cursors expired; want 0 and 0", n, h.cursorExpired.Value())
	}
}

// TestUnregisterCountsWithTheDelete: a cursor the reaper takes out of the
// registry while a page holds its lock is counted as expired, and is gone
// from the open gauge, as soon as the registry no longer lists it — not
// only once the page ends and the cursor's state goes back to the pool.
func TestUnregisterCountsWithTheDelete(t *testing.T) {
	ts, h := startCursorService(t, Config{})
	open, _ := postQuery(t, ts, fixedCursorReq(cursorSQL))
	lc := h.lookup(open.Cursor)
	if lc == nil {
		t.Fatalf("cursor %q not registered", open.Cursor)
	}
	lc.mu.Lock() // an in-flight page
	done := make(chan bool)
	go func() { done <- h.unregister(lc, h.cursorExpired) }()
	for h.OpenCursors() > 0 {
		runtime.Gosched()
	}
	expired, gauge := h.cursorExpired.Value(), h.cursorOpenG.Value()
	lc.mu.Unlock()
	if !<-done {
		t.Error("unregister did not remove the cursor")
	}
	if expired != 1 || gauge != 0 {
		t.Errorf("registry empty but expired = %d, open gauge = %d; want 1 and 0", expired, gauge)
	}
}

// TestServiceCursorLimitAndShutdown checks the MaxCursors cap and that
// Handler.Close refuses new cursors while one-shot queries keep working.
func TestServiceCursorLimitAndShutdown(t *testing.T) {
	ts, h := startCursorService(t, Config{MaxCursors: 2})
	for i := 0; i < 2; i++ {
		if qr, resp := postQuery(t, ts, fixedCursorReq(cursorSQL)); resp.StatusCode != http.StatusOK {
			t.Fatalf("open %d: %d (%s)", i, resp.StatusCode, qr.Query)
		}
	}
	if _, resp := postQuery(t, ts, fixedCursorReq(cursorSQL)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open past cap: %d, want 503", resp.StatusCode)
	}

	h.Close()
	h.Close() // idempotent
	if h.OpenCursors() != 0 || h.cursorOpenG.Value() != 0 {
		t.Errorf("after Close: registry %d gauge %d", h.OpenCursors(), h.cursorOpenG.Value())
	}
	if _, resp := postQuery(t, ts, fixedCursorReq(cursorSQL)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("open after Close should 503")
	}
	if qr, resp := postQuery(t, ts, QueryRequest{SQL: cursorSQL}); resp.StatusCode != http.StatusOK || len(qr.Items) != 4 {
		t.Errorf("one-shot after Close: %d %+v", resp.StatusCode, qr)
	}
}

// TestServiceCursorTrace asks for ?trace=1 on a cursor page and checks the
// cumulative trace conserves the cumulative bill and carries the cursor
// identity block.
func TestServiceCursorTrace(t *testing.T) {
	ts, _ := startCursorService(t, Config{})
	open, _ := postQuery(t, ts, fixedCursorReq(cursorSQL))

	body, _ := json.Marshal(NextRequest{Cursor: open.Cursor, K: 4})
	resp, err := ts.Client().Post(ts.URL+"/query/next?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil || qr.Trace.Cursor == nil {
		t.Fatalf("traced page missing trace/cursor block: %+v", qr.Trace)
	}
	ct := qr.Trace.Cursor
	if ct.ID != open.Cursor || ct.Page != 2 || ct.Emitted != 8 {
		t.Errorf("cursor trace block = %+v, want id %s page 2 emitted 8", ct, open.Cursor)
	}
	for i := range qr.SortedAccesses {
		if qr.Trace.SortedAccesses[i] != qr.SortedAccesses[i] {
			t.Errorf("trace sorted[%d] = %d, response bill %d", i, qr.Trace.SortedAccesses[i], qr.SortedAccesses[i])
		}
	}
	if qr.Trace.CostUnits != qr.Cost {
		t.Errorf("trace cost %g, response cost %g", qr.Trace.CostUnits, qr.Cost)
	}
}

// TestServiceCursorExpiryUnderLoad races pagination against the TTL sweep:
// clients keep deepening cursors while the reaper force-expires them.
// Every request must resolve to a page or a clean 404 — never a 5xx, a
// panic, or a double-counted cursor.
func TestServiceCursorExpiryUnderLoad(t *testing.T) {
	// Only the reaper runs on the clock: no deadline is cut by its jumps.
	clk := kittest.NewClock()
	ts, h := startCursorService(t, Config{CursorTTL: time.Hour, QueryTimeout: -1, AccessTimeout: -1, Breaker: topk.BreakerConfig{Clock: clk}})

	const clients = 8
	ids := make([]string, clients)
	for i := range ids {
		qr, resp := postQuery(t, ts, fixedCursorReq(cursorSQL))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("open %d: %d", i, resp.StatusCode)
		}
		ids[i] = qr.Cursor
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*8+1)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for p := 0; p < 8; p++ {
				body, _ := json.Marshal(NextRequest{Cursor: id, K: 2})
				resp, err := ts.Client().Post(ts.URL+"/query/next", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					errs <- fmt.Errorf("cursor %s page %d: status %d", id, p, resp.StatusCode)
					return
				}
				if resp.StatusCode == http.StatusNotFound {
					return // expired under us: the documented outcome
				}
			}
		}(ids[i])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < 20; s++ {
			clk.Advance(2 * time.Hour)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every opened cursor is accounted for exactly once.
	open := int64(h.OpenCursors())
	if got := h.cursorClosed.Value() + h.cursorExpired.Value() + open; got != h.cursorOpened.Value() {
		t.Errorf("cursor accounting: closed %d + expired %d + open %d != opened %d",
			h.cursorClosed.Value(), h.cursorExpired.Value(), open, h.cursorOpened.Value())
	}
	if h.cursorOpenG.Value() != open {
		t.Errorf("gauge %d disagrees with registry %d", h.cursorOpenG.Value(), open)
	}
}

// TestServiceCursorOpenExpireCycles is the reaper-path pool guard: ten
// thousand cursors opened and force-expired through one handler must leave
// the registry empty, the accounting exact, no goroutine pile-up, and the
// engine pool healthy enough that one more query works.
func TestServiceCursorOpenExpireCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("open/expire churn is a long steady-state test")
	}
	ds, err := data.Generate(data.Uniform, 100, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	kittest.NoLeaks(t)
	clk := kittest.NewClock()
	h, err := NewHandler(Config{
		Dataset:  ds,
		Columns:  []string{"p1", "p2"},
		Scenario: access.Uniform(2, 1, 2),
		Breaker:  topk.BreakerConfig{Clock: clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// One statement, prepared by its first open and reused by the rest, as
	// a repeated body would be.
	st := &statement{req: QueryRequest{
		SQL:       "select name from db order by min(p1, p2) stop after 2",
		Algorithm: "nc", H: []float64{0.5, 0.5},
		Cursor: true,
	}}
	var buf bytes.Buffer
	const cycles = 10_000
	for i := 0; i < cycles; i++ {
		buf.Reset()
		if status, err := h.openCursor(&buf, st, false); err != nil {
			t.Fatalf("cycle %d: open failed (%d): %v", i, status, err)
		}
		// Expire in batches so the registry sometimes holds several
		// cursors, exercising the sweep's selection too.
		if i%8 == 7 {
			clk.Advance(h.cfg.CursorTTL)
		}
	}
	clk.Advance(h.cfg.CursorTTL)

	if h.OpenCursors() != 0 || h.cursorOpenG.Value() != 0 {
		t.Errorf("after churn: registry %d gauge %d, want 0", h.OpenCursors(), h.cursorOpenG.Value())
	}
	if opened, expired := h.cursorOpened.Value(), h.cursorExpired.Value(); opened != int64(cycles) || expired != opened {
		t.Errorf("accounting after churn: opened %d expired %d", opened, expired)
	}
	if status, err := h.openCursor(&buf, st, false); err != nil || status != 200 {
		t.Errorf("handler unhealthy after churn: %d %v", status, err)
	}
}
