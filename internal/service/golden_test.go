package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	topk "repro"
	"repro/internal/access"
	"repro/internal/cluster"
	"repro/internal/data"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current handler")

// goldenModes are the four deployment shapes of a Handler. Each builds its
// Config over the same dataset, columns and scenario, so the goldens differ
// only by what the mode itself adds to /metrics and ?trace=1.
var goldenModes = []struct {
	name  string
	setup func(t *testing.T, ds *data.Dataset, cfg *Config)
}{
	{"memory", func(t *testing.T, ds *data.Dataset, cfg *Config) { cfg.Dataset = ds }},
	{"sharing", func(t *testing.T, ds *data.Dataset, cfg *Config) {
		cfg.Dataset = ds
		cfg.EnableSharing = true
	}},
	{"cluster", func(t *testing.T, ds *data.Dataset, cfg *Config) {
		parts, err := cluster.Partition(ds, 3)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]cluster.Shard, len(parts))
		for i, sd := range parts {
			shards[i] = cluster.NewLocalShard(sd)
		}
		if cfg.Cluster, err = cluster.New(shards, cluster.Options{}); err != nil {
			t.Fatal(err)
		}
	}},
	{"store", func(t *testing.T, ds *data.Dataset, cfg *Config) {
		dir := t.TempDir()
		if err := topk.BuildStoreFromDataset(dir, ds, topk.StoreWriterOptions{BlockEntries: 64}); err != nil {
			t.Fatal(err)
		}
		st, err := topk.OpenStore(dir, topk.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
		cfg.StoreCalibration = topk.StoreCalibration{SortedMS: 1, RandomMS: 2, Mode: "warm", Probes: 1}
	}},
}

// goldenScript is the fixed traffic every mode serves before its scrape:
// both plan-cache outcomes, an explicit NC plan, a baseline, a budget
// cutoff, a simulated-parallel run, a cursor's whole life, and a rejected
// request — one query per family of series the handler exposes.
func goldenScript(t *testing.T, ts goldenServer) {
	t.Helper()
	const q = "select name from db order by min(p1, p2) stop after 5"
	mustOK := func(path string, req any) []byte {
		t.Helper()
		code, body := ts.post(path, req)
		if code != 200 {
			t.Fatalf("%s %+v: status %d: %s", path, req, code, body)
		}
		return body
	}
	mustOK("/query", QueryRequest{SQL: q})
	mustOK("/query", QueryRequest{SQL: q})
	mustOK("/query", QueryRequest{SQL: q, Algorithm: "nc", H: []float64{0.5, 0.5}, Omega: []int{0, 1}})
	mustOK("/query", QueryRequest{SQL: "select name from db order by avg(p1, p3) stop after 4", Algorithm: "TA"})
	mustOK("/query", QueryRequest{SQL: q, Budget: 12})
	mustOK("/query", QueryRequest{SQL: "select name from db order by avg(p2, p3) stop after 6", Parallel: 4})

	var opened QueryResponse
	if err := json.Unmarshal(mustOK("/query", QueryRequest{SQL: "select name from db order by wsum(p1, p2, p3) stop after 3", Cursor: true}), &opened); err != nil {
		t.Fatal(err)
	}
	mustOK("/query/next", NextRequest{Cursor: opened.Cursor, K: 4})
	mustOK("/query/next", NextRequest{Cursor: opened.Cursor, Close: true})

	if code, _ := ts.post("/query", QueryRequest{SQL: "not sql"}); code != 400 {
		t.Fatalf("malformed SQL: status %d, want 400", code)
	}
}

type goldenServer struct {
	t *testing.T
	h *Handler
}

// post drives the handler in process (no listener): the goldens pin what
// the handler writes, not the transport.
func (s goldenServer) post(path string, req any) (int, []byte) {
	s.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		s.t.Fatal(err)
	}
	return s.do("POST", path, bytes.NewReader(body))
}

func (s goldenServer) do(method, path string, body io.Reader) (int, []byte) {
	s.t.Helper()
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, httptest.NewRequest(method, path, body))
	return w.Code, w.Body.Bytes()
}

// timeValued are the histograms whose observations are wall-clock: the
// golden keeps their names and bucket layout and masks every value.
var timeValued = []string{"topk_query_seconds", "topk_phase_seconds", "topk_source_backoff_seconds"}

func maskTimings(exposition string) string {
	lines := strings.Split(exposition, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, name := range timeValued {
			if strings.HasPrefix(line, name+"_") {
				lines[i] = line[:strings.LastIndexByte(line, ' ')] + " _"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// maskTrace re-renders a ?trace=1 body with every phase duration zeroed:
// field names, order-independent structure and every count stay as served.
func maskTrace(t *testing.T, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	trace, ok := doc["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace in %s", body)
	}
	phases, _ := trace["phases"].([]any)
	if len(phases) == 0 {
		t.Fatalf("trace carries no phases: %s", body)
	}
	for _, p := range phases {
		p.(map[string]any)["seconds"] = 0
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (re-record with -update only for a change meant to move it)\n%s", name, lineDiff(string(want), string(got)))
	}
}

// lineDiff lists the lines only one side has, enough to read a moved
// counter or a missing series off a failure.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	var b strings.Builder
	for _, l := range strings.Split(got, "\n") {
		if count[l] > 0 {
			count[l]--
			continue
		}
		fmt.Fprintf(&b, "+ %s\n", l)
	}
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			count[l]--
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	return b.String()
}

// TestServedGoldens pins what an operator reads: the full /metrics
// exposition after a fixed query script and one ?trace=1 body, in each of
// the handler's four deployment modes. Every HELP/TYPE line, series name,
// label set and counter value is compared byte for byte; wall-clock values
// are masked.
func TestServedGoldens(t *testing.T) {
	for _, mode := range goldenModes {
		t.Run(mode.name, func(t *testing.T) {
			ds, err := data.Generate(data.Uniform, 300, 3, 17)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Columns:  []string{"p1", "p2", "p3"},
				Scenario: access.Uniform(3, 1, 2),
			}
			mode.setup(t, ds, &cfg)
			h, err := NewHandler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(h.Close)
			srv := goldenServer{t: t, h: h}

			goldenScript(t, srv)
			code, body := srv.post("/query?trace=1", QueryRequest{SQL: "select name from db order by avg(p1, p2, p3) stop after 3"})
			if code != 200 {
				t.Fatalf("traced query: status %d: %s", code, body)
			}
			checkGolden(t, mode.name+".trace.json", maskTrace(t, body))

			code, body = srv.do("GET", "/metrics", nil)
			if code != 200 {
				t.Fatalf("/metrics: status %d", code)
			}
			checkGolden(t, mode.name+".metrics", []byte(maskTimings(string(body))))
		})
	}
}
