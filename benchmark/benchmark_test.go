package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{ten, 0.5, 5},
		{ten, 0.95, 10},
		{ten, 0.90, 9},
		{ten, 0.01, 1},
		{ten, 1, 10},
		{[]float64{7}, 0.5, 7},
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
	} {
		if got := percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.sorted, tc.q, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

func TestClassFloorsTakeEachClassByItsFastestTenth(t *testing.T) {
	var samples []sample
	for i := 1; i <= 20; i++ { // class 0: 1..20 ms, class 1: 101..120 ms
		samples = append(samples,
			sample{op: op{class: 0}, dur: time.Duration(i) * time.Millisecond},
			sample{op: op{class: 1}, dur: time.Duration(100+i) * time.Millisecond})
	}
	samples = append(samples, sample{op: op{class: 2}, dur: time.Microsecond, fail: "a failed operation has no latency"})
	if got, want := classFloors(samples), []float64{2, 102}; !slices.Equal(got, want) {
		t.Errorf("classFloors = %v, want %v", got, want)
	}
}

func drain(s *opStream, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestOpStreamIsAFunctionOfItsSeed(t *testing.T) {
	for _, w := range workloads {
		n := 3 * w.passLen()
		a := fmt.Sprintf("%#v", drain(newOpStream(w, 7), n))
		if b := fmt.Sprintf("%#v", drain(newOpStream(w, 7), n)); a != b {
			t.Errorf("%s: the same seed gave two operation lists", w.name)
		}
		if b := fmt.Sprintf("%#v", drain(newOpStream(w, 8), n)); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same operation list", w.name)
		}
	}
}

func TestEveryPassIssuesEveryShapeOnce(t *testing.T) {
	w, _ := workloadByName("cluster_mix")
	s := newOpStream(w, 3)
	for pass := 0; pass < 4; pass++ {
		var seen []int
		for _, p := range drain(s, w.passLen()) {
			seen = append(seen, p.class)
			if p.sql != w.shapes[p.class].sql() {
				t.Fatalf("operation SQL %q does not match its shape", p.sql)
			}
		}
		slices.Sort(seen)
		for i, sh := range seen {
			if sh != i {
				t.Fatalf("pass %d issued shapes %v, want each of 0..%d once", pass, seen, w.passLen()-1)
			}
		}
	}
}

func TestSessionUsersDriftSoThatNoRankingFunctionRepeats(t *testing.T) {
	w, _ := workloadByName("mem_session")
	seen := map[string]bool{}
	first := map[int][]float64{}
	for i, p := range drain(newOpStream(w, 1), (weightDrift+1)*sessionUsers) {
		if len(p.weights) != w.m || p.class < 0 || p.class >= sessionUsers {
			t.Fatalf("not a session operation: %+v", p)
		}
		for _, x := range p.weights {
			if x < 0.05 || x > 1 {
				t.Fatalf("weight %v outside [0.05, 1]", x)
			}
		}
		if want := querySQL("wsum", p.weights, all3, sessionK); p.sql != want {
			t.Fatalf("sql %q, want %q", p.sql, want)
		}
		pass := i / sessionUsers
		switch {
		case pass == 0:
			first[p.class] = p.weights
		case pass < weightDrift:
			// Only the first weight moves, by a thousandth a pass.
			if d := p.weights[0] - first[p.class][0]; math.Abs(d-float64(pass)/1000) > 1e-9 || !slices.Equal(p.weights[1:], first[p.class][1:]) {
				t.Fatalf("pass %d user %d: weights %v after %v", pass, p.class, p.weights, first[p.class])
			}
		}
		if seen[p.sql] != (pass == weightDrift) {
			t.Fatalf("pass %d user %d: %q seen before: %v", pass, p.class, p.sql, seen[p.sql])
		}
		seen[p.sql] = true
	}
	if got, want := querySQL("wsum", []float64{0.5, 0.125, 1}, all3, 10),
		"select name from db order by wsum(0.500*p1, 0.125*p2, 1.000*p3) stop after 10"; got != want {
		t.Errorf("querySQL = %q, want %q", got, want)
	}
}

func TestOracleRanksAProjection(t *testing.T) {
	w, _ := workloadByName("mem_point")
	o, err := buildOracles(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range w.shapes {
		got := o.byShape[i]
		if len(got) != s.k {
			t.Fatalf("shape %d: %d items, want %d", i, len(got), s.k)
		}
		for r := 1; r < len(got); r++ {
			if got[r].Score > got[r-1].Score {
				t.Fatalf("shape %d: rank %d outranks rank %d", i, r, r-1)
			}
		}
	}
	// min(p3, p1) and min(p1, p3) rank alike: the projection picks columns,
	// it does not depend on their order for a symmetric function.
	a, b := -1, -1
	for i, s := range w.shapes {
		if s.fn == "min" && s.k == 50 && slices.Equal(s.cols, []int{2, 0}) {
			a = i
		}
		if s.fn == "min" && s.k == 50 && slices.Equal(s.cols, p13) {
			b = i
		}
	}
	if !reflect.DeepEqual(o.byShape[a], o.byShape[b]) {
		t.Error("min over (p3,p1) and (p1,p3) disagree")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command field holds spaces and parentheses; utime=250, stime=50.
	stat := "4242 (top kd) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 12345 1000000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3000.0; got != want {
		t.Errorf("cpu = %v ms, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseKeyedProcFiles(t *testing.T) {
	status := "Name:\ttopkd\nVmPeak:\t 1300000 kB\nVmHWM:\t   91234 kB\nVmRSS:\t   80000 kB\n"
	if got, err := parseKeyed(status, "VmHWM"); err != nil || got != 91234 {
		t.Errorf("VmHWM = %v, %v", got, err)
	}
	io := "rchar: 1234567\nwchar: 89\nsyscr: 4321\nsyscw: 7\nread_bytes: 0\n"
	if got, err := parseKeyed(io, "rchar"); err != nil || got != 1234567 {
		t.Errorf("rchar = %v, %v", got, err)
	}
	if got, err := parseKeyed(io, "syscr"); err != nil || got != 4321 {
		t.Errorf("syscr = %v, %v", got, err)
	}
	if _, err := parseKeyed(io, "VmHWM"); err == nil {
		t.Error("a missing key parsed")
	}
}

func TestParseMemStatsFooter(t *testing.T) {
	profile := "heap profile: 1: 2 [3: 4] @ heap/1048576\n# Mallocs = 1\n\n# runtime.MemStats\n# Alloc = 801200\n# TotalAlloc = 9801200\n# Sys = 8344840\n# Mallocs = 5840\n# Frees = 355\n# PauseNs = [0 0 0]\n"
	got, err := parseMemStatsFooter(profile)
	if err != nil {
		t.Fatal(err)
	}
	if want := (memStats{mallocs: 5840, totalAlloc: 9801200}); got != want {
		t.Errorf("footer = %+v, want %+v", got, want)
	}
	if _, err := parseMemStatsFooter("heap profile: 0: 0\n"); err == nil {
		t.Error("a profile without a footer parsed")
	}
}

func TestParseProm(t *testing.T) {
	got := parseProm("# HELP topk_accesses_total Billed.\n# TYPE topk_accesses_total counter\n" +
		"topk_accesses_total{kind=\"sorted\"} 75\ntopk_phase_seconds_sum{phase=\"parse\"} 1.056e-05\ntopk_cursor_open 0\n\n")
	want := map[string]float64{
		`topk_accesses_total{kind="sorted"}`:    75,
		`topk_phase_seconds_sum{phase="parse"}`: 1.056e-05,
		"topk_cursor_open":                      0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseProm = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "client", Start: 0, End: 100, Parent: -1},
		{Name: "parse", Start: 10, End: 20, Parent: 0},
		{Name: "execute", Start: 15, End: 60, Parent: 0},   // overlaps parse: 15..20 counts once
		{Name: "late", Start: 90, End: 130, Parent: 0},     // clipped to the client span
		{Name: "inner", Start: 20, End: 30, Parent: 2},     // a grandchild leaves the client alone
		{Name: "orphan", Start: 0, End: 5, Parent: 99},     // an unknown parent is ignored
		{Name: "outside", Start: 200, End: 300, Parent: 0}, // disjoint from its parent
	}
	want := []int64{100 - 50 - 10, 10, 45 - 10, 40, 10, 5, 100}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracedSampleBecomesSpans(t *testing.T) {
	tr := newTracer()
	s := sample{op: op{sql: "q"}, start: tr.epoch.Add(1000), dur: 1000,
		phases: []phase{{"parse", 100e-9}, {"execute", 500e-9}}}
	root := tr.addSample("w", s)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].Parent != root || spans[1].End != spans[2].Start {
		t.Fatalf("spans = %+v", spans)
	}
	if self := selfTimes(spans)[root]; self != 400 {
		t.Errorf("client self time = %d ns, want 400", self)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: manifest {%s %s %s}, code {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: manifest bound %v, code bound %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if float64(m.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %v", m.RunSeconds, defaultSeconds)
	}
}

// TestQuick runs the end-to-end pass against a freshly built topkd on the
// first 50 shapes of mem_point: one pass, no warm-up, every answer checked.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches topkd")
	}
	t.Chdir("..") // the benchmark runs from the module root
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bin, err := buildTopkd(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("mem_point")
	w.shapes, w.warmup = w.shapes[:50], 0
	res, err := runE2E(ctx, config{bin: bin, seed: 1, seconds: 0.001}, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 50 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d, correct %v; want 50, 0, true", res.Attempted, res.Failed, res.Correct)
	}
	for _, d := range endToEnd {
		if v := res.Metrics[d.name]; v.Value <= 0 || v.Unit != d.unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
		}
	}
}
