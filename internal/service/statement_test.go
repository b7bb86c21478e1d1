package service

// The statement cache and the direct encoder replaced the front and back
// halves of POST /query: these tests pin that a client cannot tell — a
// cached statement answers exactly what decoding its body again would, a
// rejected body is rejected the same way every time and never cached — and
// the request-handling details that changed with them.

import (
	"bytes"
	"encoding/json"
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

// rejectedBodies are POST /query bodies the front half refuses, each with
// the status it must get every time.
var rejectedBodies = []struct {
	name   string
	status int
	body   string
}{
	{"unknown field", 400, `{"sql":"select name from db order by min(p1, p2) stop after 5","limit":3}`},
	{"trailing garbage", 400, `{"sql":"select name from db order by min(p1, p2) stop after 5"} and then some`},
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
	// over the cap, refused before any lookup. Six end up cached: the
	// script's six distinct statements that prepared.
	const lookups, cached = 15, 6
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

// TestConcurrentContentLength: writeBody hands net/http the pooled
// response's own Content-Length value slice, which is free again once
// net/http has copied the header out at WriteHeader. Concurrent requests
// over real connections, whose bodies differ in size, must each arrive
// with their own body's length and their own body; under -race a value
// slice still read after its response went back to the pool shows here.
func TestConcurrentContentLength(t *testing.T) {
	srv := httptest.NewServer(newStatementHandler(t))
	defer srv.Close()
	client := srv.Client()
	post := func(k int) (*http.Response, []byte, error) {
		body := fmt.Sprintf(`{"sql":"select name from db order by min(p1, p2) stop after %d"}`, k)
		res, err := client.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		defer res.Body.Close()
		var got bytes.Buffer
		_, err = got.ReadFrom(res.Body)
		return res, got.Bytes(), err
	}
	ks := []int{1, 4, 12, 33, 90}
	want := make(map[int]string, len(ks))
	for _, k := range ks {
		_, body, err := post(k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = string(body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := ks[(g+i)%len(ks)]
				res, body, err := post(k)
				if err != nil {
					t.Error(err)
					return
				}
				if cl := res.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) || res.ContentLength != int64(len(body)) {
					t.Errorf("k %d: Content-Length %q for a %d-byte body", k, cl, len(body))
				}
				if string(body) != want[k] {
					t.Errorf("k %d: body %.120q, want %.120q", k, body, want[k])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTrailingBytesAreRefused: a body with anything but whitespace after
// its JSON value is a 400 naming the byte on both POST endpoints, whether
// the direct decoder would read its value or only encoding/json would (an
// escaped key); whitespace after the value is not. (rejectedBodies holds
// the /query case through the statement cache.)
func TestTrailingBytesAreRefused(t *testing.T) {
	h := newStatementHandler(t)
	srv := goldenServer{h: h}
	const sql = "select name from db order by min(p1, p2) stop after 5"
	code, body := srv.do("POST", "/query", []byte(`{"sql":"`+sql+`","cursor":true}`))
	var opened QueryResponse
	if err := json.Unmarshal(body, &opened); code != 200 || err != nil {
		t.Fatalf("open: status %d, %v: %s", code, err, body)
	}
	next := `{"cursor":"` + opened.Cursor + `","k":1}`
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/query", `{"sql":"` + sql + `"}{}`, 400},
		{"/query", `{"s\u0071l":"` + sql + `"} x`, 400},
		{"/query", `{"sql":"` + sql + `"}` + " \t\r\n", 200},
		{"/query", `{"sql":"` + sql + `"}` + "\n", 200},
		{"/query/next", next + ` and then some`, 400},
		{"/query/next", next + `]`, 400},
		{"/query/next", `{"curs\u006fr":"` + opened.Cursor + `","k":1} x`, 400},
		{"/query/next", `{"curs\u006fr":"` + opened.Cursor + `","k":1}`, 200},
		{"/query/next", next + "\n", 200},
	} {
		code, body := srv.do("POST", tc.path, []byte(tc.body))
		if code != tc.status {
			t.Errorf("%s %q: status %d, want %d: %s", tc.path, tc.body, code, tc.status, body)
		}
		if tc.status == 400 && !strings.Contains(string(body), "after top-level value") {
			t.Errorf("%s %q: error does not name the trailing byte: %s", tc.path, tc.body, body)
		}
	}
}
