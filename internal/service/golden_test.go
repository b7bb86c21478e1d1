package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
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
var goldenModes = []goldenMode{
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
	}},
}

// goldenScript is the fixed traffic every mode serves before its scrape:
// both plan-cache outcomes, an explicit NC plan, a baseline, a budget
// cutoff, a simulated-parallel run, a cursor's whole life, and a rejected
// request — one query per family of series the handler exposes. It reports
// the first exchange that did not go as scripted.
func goldenScript(ts goldenServer) error {
	const q = "select name from db order by min(p1, p2) stop after 5"
	expect := func(want int, path string, req any) ([]byte, error) {
		code, body := ts.post(path, req)
		if code != want {
			return nil, fmt.Errorf("%s %+v: status %d, want %d: %s", path, req, code, want, body)
		}
		return body, nil
	}
	for _, req := range []QueryRequest{
		{SQL: q},
		{SQL: q},
		{SQL: q, Algorithm: "nc", H: []float64{0.5, 0.5}, Omega: []int{0, 1}},
		{SQL: "select name from db order by avg(p1, p3) stop after 4", Algorithm: "TA"},
		{SQL: q, Budget: 12},
		{SQL: "select name from db order by avg(p2, p3) stop after 6", Parallel: 4},
	} {
		if _, err := expect(200, "/query", req); err != nil {
			return err
		}
	}
	body, err := expect(200, "/query", QueryRequest{SQL: "select name from db order by wsum(p1, p2, p3) stop after 3", Cursor: true})
	if err != nil {
		return err
	}
	var opened QueryResponse
	if err := json.Unmarshal(body, &opened); err != nil {
		return err
	}
	if _, err := expect(200, "/query/next", NextRequest{Cursor: opened.Cursor, K: 4}); err != nil {
		return err
	}
	if _, err := expect(200, "/query/next", NextRequest{Cursor: opened.Cursor, Close: true}); err != nil {
		return err
	}
	_, err = expect(400, "/query", QueryRequest{SQL: "not sql"})
	return err
}

type goldenMode struct {
	name  string
	setup func(t *testing.T, ds *data.Dataset, cfg *Config)
}

// newGoldenHandler builds mode's handler over a uniform n x 3 dataset under
// columns p1..p3. Cursor ids carry a per-handler random prefix; it is
// pinned so recorded bodies repeat.
func newGoldenHandler(t *testing.T, mode goldenMode, n int) *Handler {
	t.Helper()
	ds, err := data.Generate(data.Uniform, n, 3, 17)
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
	h.curPrefix = "golden"
	return h
}

type goldenServer struct {
	h *Handler
	// rec, when non-nil, receives every exchange as the client saw it: the
	// request line and body, then the status and the response body verbatim.
	rec *bytes.Buffer
}

// post drives the handler in process (no listener): the goldens pin what
// the handler writes, not the transport.
func (s goldenServer) post(path string, req any) (int, []byte) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return s.do("POST", path, body)
}

func (s goldenServer) do(method, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if s.rec != nil {
		fmt.Fprintf(s.rec, "> %s %s %s\n< %d %s", method, path, body, w.Code, w.Body.Bytes())
	}
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

// TestServedGoldens pins what a client and an operator read: every plain
// response body of a fixed query script, the full /metrics exposition after
// it and one ?trace=1 body, in each of the handler's four deployment modes.
// Bodies, every HELP/TYPE line, series name, label set and counter value
// are compared byte for byte; wall-clock values are masked.
func TestServedGoldens(t *testing.T) {
	for _, mode := range goldenModes {
		t.Run(mode.name, func(t *testing.T) {
			srv := goldenServer{h: newGoldenHandler(t, mode, 300), rec: new(bytes.Buffer)}

			if err := goldenScript(srv); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, mode.name+".bodies", srv.rec.Bytes())
			srv.rec = nil
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

// TestServedPlanSampleGolden pins the estimator sample a served plan names
// in ?trace=1 once the base is large enough to sample (n/100 ≥ 50 rows):
// rows of the engine's own dataset or store — below the sharing layer —
// and the dummy behind a coordinator.
func TestServedPlanSampleGolden(t *testing.T) {
	for _, mode := range goldenModes {
		t.Run(mode.name, func(t *testing.T) {
			srv := goldenServer{h: newGoldenHandler(t, mode, 5000)}
			code, body := srv.post("/query?trace=1", QueryRequest{SQL: "select name from db order by min(p1, p3) stop after 5"})
			if code != 200 {
				t.Fatalf("traced query: status %d: %s", code, body)
			}
			checkGolden(t, mode.name+".sampled.trace.json", maskTrace(t, body))
		})
	}
}
