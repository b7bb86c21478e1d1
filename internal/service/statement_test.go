package service

// The statement cache and the direct encoder replaced the front and back
// halves of POST /query: these tests pin that a client cannot tell — a
// cached statement answers exactly what decoding its body again would, a
// rejected body is rejected the same way every time and never cached — and
// the request-handling details that changed with them.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// newStatementHandler is the goldens' memory-mode handler.
func newStatementHandler(t *testing.T) *Handler {
	t.Helper()
	return newGoldenHandler(t, goldenModes[0], 300)
}

// rejectedBodies are POST /query bodies the front half refuses or, for the
// trailing-garbage one, accepts by the decoder's rule (it reads the first
// JSON value and stops) — each with the status it must get every time.
var rejectedBodies = []struct {
	name   string
	status int
	body   string
}{
	{"unknown field", 400, `{"sql":"select name from db order by min(p1, p2) stop after 5","limit":3}`},
	{"trailing garbage", 200, `{"sql":"select name from db order by min(p1, p2) stop after 5"} and then some`},
	{"over 1 MiB", 413, `{"sql":"` + strings.Repeat("x", maxBody) + `"}`},
	{"bad SQL", 400, `{"sql":"select name from db order by min(p1, p2)"}`},
	{"unbound column", 400, `{"sql":"select name from db order by min(p1, p9) stop after 5"}`},
	{"nc without h", 400, `{"sql":"select name from db order by min(p1, p2) stop after 5","algorithm":"nc"}`},
	{"not JSON", 400, `select name from db`},
	{"empty", 400, ``},
}

// cursorID matches a served cursor id: each open mints the next one, which
// is the one way a repeated exchange legitimately differs.
var cursorID = regexp.MustCompile(`golden-\d+`)

// transcript serves goldenScript and then every rejected body, returning
// the whole exchange with cursor ids masked.
func transcript(h *Handler) ([]byte, error) {
	srv := goldenServer{h: h, rec: new(bytes.Buffer)}
	if err := goldenScript(srv); err != nil {
		return nil, err
	}
	for _, rb := range rejectedBodies {
		if code, body := srv.do("POST", "/query", []byte(rb.body)); code != rb.status {
			return nil, fmt.Errorf("%s: status %d, want %d: %.200s", rb.name, code, rb.status, body)
		}
	}
	return cursorID.ReplaceAll(srv.rec.Bytes(), []byte("golden-#")), nil
}

// TestStatementCacheEquivalence: the first pass over goldenScript and the
// rejected bodies misses the statement cache on every body; the second
// finds every statement that prepared and must return the same status and
// bytes for every exchange; then eight goroutines do the same at once (run
// under -race). Rejected bodies are re-rejected identically and never
// enter the cache.
func TestStatementCacheEquivalence(t *testing.T) {
	h := newStatementHandler(t)
	first, err := transcript(h)
	if err != nil {
		t.Fatal(err)
	}
	// A pass looks up fifteen bodies: goldenScript's eight /query requests,
	// two of them the same, and the rejected table's eight less the one
	// over the cap, refused before any lookup. Seven end up cached: the
	// script's six distinct statements that prepared and the
	// trailing-garbage body (its own key, though it decodes to one of them).
	const lookups, cached = 15, 7
	if hits, misses := h.stmtHits.Load(), h.stmtMisses.Load(); hits != 1 || misses != lookups-1 {
		t.Fatalf("first pass: %d hits, %d misses, want 1 and %d", hits, misses, lookups-1)
	}
	if n := h.stmts.Len(); n != cached {
		t.Fatalf("%d statements cached after the first pass, want %d", n, cached)
	}
	second, err := transcript(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached pass differs from the first\n%s", lineDiff(string(first), string(second)))
	}
	// The second pass hits on every cached body, the repeat twice.
	if hits, misses := h.stmtHits.Load(), h.stmtMisses.Load(); hits != 1+cached+1 || hits+misses != 2*lookups {
		t.Errorf("after the second pass: %d hits, %d misses, want %d hits of %d lookups", hits, misses, 1+cached+1, 2*lookups)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := transcript(h)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(first, got) {
					t.Errorf("concurrent pass differs from the first\n%s", lineDiff(string(first), string(got)))
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := h.stmts.Len(); n != cached {
		t.Errorf("%d statements cached at the end, want %d: a rejected body was cached", n, cached)
	}
}

// TestStatementCacheIsBoundedLRU: bodies past maxStatementBody are served
// but not cached, and past maxStatements the least recently used statement
// goes.
func TestStatementCacheIsBoundedLRU(t *testing.T) {
	h := newStatementHandler(t)
	srv := goldenServer{h: h}
	sql := "select name from db order by min(p1, p2) stop after 5"
	big := fmt.Sprintf(`{"sql":%q%s}`, sql, strings.Repeat(" ", maxStatementBody))
	for i := 0; i < 2; i++ {
		if code, body := srv.do("POST", "/query", []byte(big)); code != 200 {
			t.Fatalf("oversized body: status %d: %s", code, body)
		}
	}
	if h.stmts.Len() != 0 || h.stmtHits.Load() != 0 {
		t.Fatalf("a %d-byte body was cached (%d entries, %d hits)", len(big), h.stmts.Len(), h.stmtHits.Load())
	}
	// Each padding length is its own body for one statement.
	body := func(i int) []byte { return []byte(fmt.Sprintf(`{"sql":%q%s}`, sql, strings.Repeat(" ", i))) }
	for i := 0; i <= maxStatements; i++ {
		if code, resp := srv.do("POST", "/query", body(i)); code != 200 {
			t.Fatalf("body %d: status %d: %s", i, code, resp)
		}
	}
	if n := h.stmts.Len(); n != maxStatements {
		t.Fatalf("%d statements cached, want the bound %d", n, maxStatements)
	}
	hits := h.stmtHits.Load()
	srv.do("POST", "/query", body(maxStatements)) // the newest: still there
	srv.do("POST", "/query", body(0))             // the oldest: evicted
	if got := h.stmtHits.Load() - hits; got != 1 {
		t.Errorf("%d hits re-asking the newest and the oldest body, want 1", got)
	}
}

// TestRequestBodyCap: a body of exactly maxBody bytes is decoded; one byte
// more answers 413, not a JSON syntax error at the cut — on both POST
// endpoints.
func TestRequestBodyCap(t *testing.T) {
	h := newStatementHandler(t)
	srv := goldenServer{h: h}
	sql := `{"sql":"select name from db order by min(p1, p2) stop after 5"}`
	atCap := sql + strings.Repeat(" ", maxBody-len(sql))
	if code, body := srv.do("POST", "/query", []byte(atCap)); code != 200 {
		t.Errorf("body of maxBody bytes: status %d: %.200s", code, body)
	}
	for _, path := range []string{"/query", "/query/next"} {
		code, body := srv.do("POST", path, []byte(atCap+" "))
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "request body too large") {
			t.Errorf("%s with maxBody+1 bytes: status %d: %.200s", path, code, body)
		}
	}
}

// TestResponseHeaders: every JSON answer — direct-encoded, traced, error —
// carries the content type and its exact length, and ?trace is read from
// the query string only when there is one.
func TestResponseHeaders(t *testing.T) {
	h := newStatementHandler(t)
	body := `{"sql":"select name from db order by min(p1, p2) stop after 5"}`
	for _, tc := range []struct {
		target string
		body   string
		status int
		traced bool
	}{
		{"/query", body, 200, false},
		{"/query?trace=1", body, 200, true},
		{"/query?trace=0", body, 200, false},
		{"/query?other=1", body, 200, false},
		{"/query", `{"sql":"nope"}`, 400, false},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", tc.target, strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d: %s", tc.target, rec.Code, rec.Body)
		}
		res := rec.Result()
		if ct := res.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.target, ct)
		}
		if cl := res.Header.Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", tc.target, cl, rec.Body.Len())
		}
		if got := strings.Contains(rec.Body.String(), `"trace":`); got != tc.traced {
			t.Errorf("%s: trace present = %v, want %v", tc.target, got, tc.traced)
		}
	}
	if len(jsonContentType) != 1 || jsonContentType[0] != "application/json" {
		t.Errorf("the shared Content-Type value was written to: %q", jsonContentType)
	}
}
