//go:build !race

package service

import (
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
