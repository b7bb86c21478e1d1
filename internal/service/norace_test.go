//go:build !race

package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/data"
)

// TestHandlerAllocGate pins what one warm POST /query allocates, measured
// through ServeHTTP into a fresh recorder (the recorder's own 7 included;
// the race detector instruments allocations, so it runs in ordinary builds
// only). A repeated body — statement cached, plan cached, engine pooled —
// pays for two allocations besides the recorder's: the first entry of the
// request's fresh header map and the Content-Length value's decimal string.
// The answer is filled into the pooled response's own (RunInto) and the
// header value slices are shared or pooled, so the statement lookup, the
// projection lookup, the pooled query deadline, the run's own pipeline, the
// membership key of a cluster, the answer and the response encoding
// contribute nothing. So the count is the same in every deployment mode,
// over the identity and a reordered projection alike, and deep answers cost
// what shallow ones do, whether their labels are the dataset's own or the
// u<id> form a cluster or store deployment falls back to.
func TestHandlerAllocGate(t *testing.T) {
	const n = 1000
	ceilings := map[string]float64{"memory": 9, "labelled": 9, "cluster": 9, "store": 9}
	labelled := goldenMode{"labelled", func(t *testing.T, ds *data.Dataset, cfg *Config) {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("Chez <%d> & \"fils\"", i)
		}
		ds.SetLabels(names)
		cfg.Dataset = ds
	}}
	for _, mode := range append([]goldenMode{labelled}, goldenModes...) {
		ceiling, ok := ceilings[mode.name]
		if !ok {
			// Sharing: its count moves with how warm the shared layer is,
			// which TestSharedAccessGate measures.
			continue
		}
		t.Run(mode.name, func(t *testing.T) {
			h := newGoldenHandler(t, mode, n)
			for _, cols := range [][]int{{0, 1, 2}, {2, 0}} {
				var shallow float64
				for _, k := range []int{1, 10, 50} {
					body := fmt.Sprintf(`{"sql":%q}`, columnSQL("min", k, cols...))
					rd := strings.NewReader(body)
					req := httptest.NewRequest(http.MethodPost, "/query", rd)
					serve := func() {
						rd.Reset(body)
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, req)
						if rec.Code != http.StatusOK {
							t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
						}
					}
					serve() // statement, plan and engine caches fill
					serve() // pooled buffers grow to the answer's size
					got := testing.AllocsPerRun(20, serve)
					t.Logf("cols %v k %d: %v allocs/request", cols, k, got)
					if got > ceiling {
						t.Errorf("cols %v k %d: %v allocs/request, ceiling %v", cols, k, got, ceiling)
					}
					if k == 1 {
						shallow = got
					} else if got > shallow+2 {
						t.Errorf("cols %v: k %d allocates %v, k 1 %v: answers allocate per item again", cols, k, got, shallow)
					}
				}
			}
			if hits := h.stmtHits.Load(); hits < 6*20 {
				t.Errorf("only %d statement-cache hits: the measured requests were not the cached path", hits)
			}
		})
	}
}

// TestCursorSessionAllocGate pins what one served cursor session allocates
// through ServeHTTP: an open with "cursor":true, two /query/next pages and
// a close, each into a fresh recorder (7 allocations each of the 4
// requests are the recorder's). Every cycle changes the first weight of
// its wsum, so its open misses the statement cache and the plan cache — a
// warm-started plan search, a fresh cursor and its trace — as every open of
// a per-user session does; the pages and the close read bodies that name
// the cursor. Bodies are built before the measurement: ids are minted in
// sequence, so each cycle's are known ahead. The count is averaged over 100
// sessions because the statement and plan caches grow as misses fill them:
// over 20 their growth read as most of one allocation per session, and one
// stray allocation elsewhere in the process tipped the floor. Of the
// open's misses, the parse allocates only what its Query keeps
// (TestParseAllocGate), and the plan cache books the search's plan with
// the key string and, while the cache fills, the LRU node; the first
// page copies the plan into storage inside the cursor.
func TestCursorSessionAllocGate(t *testing.T) {
	const ceiling, runs = 62, 100
	h := newGoldenHandler(t, goldenModes[0], 1000)
	type cycle struct{ open, next, close []byte }
	var cycles []cycle
	for i := range runs + 2 {
		w := 0.2 + 0.001*float64(i)
		sql := fmt.Sprintf("select name from db order by wsum(%.3f*p1, 0.300*p2, 0.500*p3) stop after 10", w)
		id := fmt.Sprintf("golden-%d", i+1)
		cycles = append(cycles, cycle{
			open:  []byte(fmt.Sprintf(`{"sql":%q,"cursor":true}`, sql)),
			next:  []byte(fmt.Sprintf(`{"cursor":%q,"k":10}`, id)),
			close: []byte(fmt.Sprintf(`{"cursor":%q,"close":true}`, id)),
		})
	}
	rd := bytes.NewReader(nil)
	open := httptest.NewRequest(http.MethodPost, "/query", rd)
	next := httptest.NewRequest(http.MethodPost, "/query/next", rd)
	do := func(req *http.Request, body []byte) {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d: %s", req.URL.Path, body, rec.Code, rec.Body)
		}
	}
	i := 0
	session := func() {
		c := cycles[i]
		i++
		do(open, c.open)
		do(next, c.next)
		do(next, c.next)
		do(next, c.close)
	}
	session() // engine pool, pooled buffers and the first cached plan fill
	got := testing.AllocsPerRun(runs, session)
	t.Logf("%v allocs/session", got)
	if got > ceiling {
		t.Errorf("%v allocs/session, ceiling %v", got, ceiling)
	}
	if hits := h.stmtHits.Load(); hits != 0 {
		t.Errorf("%d statement-cache hits: the measured opens were not misses", hits)
	}
	if st := h.PlanCacheStats(); st.Hits != 0 {
		t.Errorf("%d plan-cache hits: the measured opens were not misses", st.Hits)
	}
	if n := h.OpenCursors(); n != 0 {
		t.Errorf("%d cursors left open", n)
	}
}

// TestRequestDecodingAllocGate: the direct decoders allocate only what the
// request they fill holds — one string for a page's cursor id, one for a
// statement's SQL.
func TestRequestDecodingAllocGate(t *testing.T) {
	page := []byte(`{"cursor":"golden-12","k":10}`)
	open := []byte(`{"sql":"select name from db order by wsum(0.201*p1, 0.300*p2, 0.500*p3) stop after 10","cursor":true}`)
	var next NextRequest
	if got := testing.AllocsPerRun(100, func() { next = NextRequest{}; _ = decodeNext(page, &next) }); got != 1 {
		t.Errorf("a page's body: %v allocations, want 1", got)
	}
	var query QueryRequest
	if got := testing.AllocsPerRun(100, func() { query = QueryRequest{}; _ = decodeQuery(open, &query) }); got != 1 {
		t.Errorf("an open's body: %v allocations, want 1", got)
	}
	if next.Cursor != "golden-12" || next.K != 10 || !query.Cursor || query.SQL == "" {
		t.Errorf("decoded %+v and %+v", next, query)
	}
}
