package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestRequestFieldsDoNotSizeAllocations is the HTTP face of the facade's
// TestRequestSizedAllocationsAreBounded: "stop after", a /query/next "k" and
// "parallel" are a client's to choose, and none of them may size memory
// before any work runs. At the commit before the fix each of these requests
// allocated ≥100 MB over a 200-row database (and a larger value took topkd
// down with "fatal error: out of memory").
func TestRequestFieldsDoNotSizeAllocations(t *testing.T) {
	_, h := startFaultService(t, nil)
	const sql = "select name from db order by min(rating, closeness) stop after %d"
	serve := func(t *testing.T, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d: %s", path, body, rec.Code, rec.Body)
		}
		return rec
	}
	var opened QueryResponse
	if err := json.Unmarshal(serve(t, "/query", fmt.Sprintf(`{"sql":%q,"cursor":true}`, fmt.Sprintf(sql, 3))).Body.Bytes(), &opened); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, path, body string }{
		{"stop after", "/query", fmt.Sprintf(`{"sql":%q}`, fmt.Sprintf(sql, 5_000_000))},
		{"parallel", "/query", fmt.Sprintf(`{"sql":%q,"parallel":10000000}`, fmt.Sprintf(sql, 5))},
		{"next k", "/query/next", fmt.Sprintf(`{"cursor":%q,"k":5000000}`, opened.Cursor)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			serve(t, c.path, c.body)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
				t.Errorf("one request allocated %d MB: something is sized by a request field", got>>20)
			}
		})
	}
}
