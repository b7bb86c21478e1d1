package opt

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/obs"
	"repro/internal/score"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current optimizer")

// evalStream digests the EstimatorEval sequence of one planning call: how
// many events were simulations, how many memo hits, and an FNV hash of
// their order.
type evalStream struct {
	seq []byte
}

func (s *evalStream) Observe(ev obs.Event) {
	switch ev.Kind {
	case obs.EstimatorEval:
		if ev.Code == obs.Hit {
			s.seq = append(s.seq, 'm')
		} else {
			s.seq = append(s.seq, 's')
		}
	}
}

func (s *evalStream) digest() string {
	h := fnv.New64a()
	h.Write(s.seq)
	return fmt.Sprintf("events=%d memoized=%d order=%016x", len(s.seq), bytes.Count(s.seq, []byte{'m'}), h.Sum64())
}

// goldenCell is one planning problem of the golden table.
type goldenCell struct {
	name string
	cfg  Config
	scn  access.Scenario
	f    score.Func
	k, n int
}

// namedScenario is one named cell of the paper's Figure-2 cost matrix.
type namedScenario struct {
	name string
	scn  access.Scenario
}

// figure2Scenarios enumerates the legal Figure-2 matrix cells for m
// predicates (the sa-impossible/ra-impossible corner cannot run).
func figure2Scenarios(m int) []namedScenario {
	return []namedScenario{
		{"sa-cheap_ra-cheap", access.MatrixCell(m, access.Cheap, access.Cheap, 10)},
		{"sa-cheap_ra-expensive", access.MatrixCell(m, access.Cheap, access.Expensive, 10)},
		{"sa-cheap_ra-impossible", access.MatrixCell(m, access.Cheap, access.Impossible, 10)},
		{"sa-impossible_ra-expensive", access.MatrixCell(m, access.Impossible, access.Expensive, 10)},
		{"sa-expensive_ra-cheap", access.MatrixCell(m, access.Expensive, access.Cheap, 10)},
	}
}

// goldenCells spans {HClimb, Naive(g=5), Strategies} x the Figure-2 matrix
// x {min, avg, wsum} x k x n x {dummy sample, 500-row real sample,
// Observed-warped dummy, RefineOmega}.
func goldenCells() []goldenCell {
	const m = 3
	real := datatest.MustSample(datatest.MustGenerate(data.Correlated, 4000, m, 11), 500, 5)
	observed := &ObservedStats{Slopes: []float64{2, 0.5, 1}, ProbeMeans: []float64{0, 0.25, 0}}
	schemes := []struct {
		name string
		cfg  Config
	}{
		{"HClimb", Config{Scheme: SchemeHClimb}},
		{"Naive5", Config{Scheme: SchemeNaive, Grid: 5}},
		{"Strategies", Config{Scheme: SchemeStrategies}},
	}
	funcs := []score.Func{score.Min(), score.Avg(), score.Weighted(0.3, 0.25, 0.45)}
	samples := []struct {
		name  string
		apply func(*Config)
	}{
		{"dummy", func(*Config) {}},
		{"real500", func(c *Config) { c.Sample = real }},
		{"observed", func(c *Config) { c.Observed = observed }},
		{"refine", func(c *Config) { c.RefineOmega = true }},
	}
	var cells []goldenCell
	for _, sch := range schemes {
		for _, sc := range figure2Scenarios(m) {
			for _, f := range funcs {
				for _, k := range []int{1, 10, 50} {
					for _, n := range []int{1000, 100000} {
						for _, sm := range samples {
							cfg := sch.cfg
							cfg.Seed = 1
							sm.apply(&cfg)
							cells = append(cells, goldenCell{
								name: fmt.Sprintf("%s/%s/%s/k=%d/n=%d/%s", sch.name, sc.name, f.Name(), k, n, sm.name),
								cfg:  cfg, scn: sc.scn, f: f, k: k, n: n,
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// formatPlan renders a plan exactly: shortest round-trip floats carry
// every bit of H.
func formatPlan(p Plan) string {
	var b strings.Builder
	b.WriteString("H=[")
	for i, x := range p.H {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	fmt.Fprintf(&b, "] Omega=%v cost=%d evals=%d", p.Omega, int64(p.EstimatedCost), p.Evals)
	return b.String()
}

// planLine runs one cell and renders its golden line.
func planLine(c goldenCell) string {
	stream := &evalStream{}
	cfg := c.cfg
	cfg.Observer = stream
	plan, err := Optimize(cfg, c.scn, c.f, c.k, c.n)
	if err != nil {
		return fmt.Sprintf("%s ERR %v", c.name, err)
	}
	return fmt.Sprintf("%s %s %s", c.name, formatPlan(plan), stream.digest())
}

// TestPlansGolden pins Optimize's output — H, Omega, EstimatedCost, Evals
// and the EstimatorEval event stream — byte for byte against the table
// recorded before the planning arena existed. Re-record with
// go test ./internal/opt -run TestPlansGolden -update only for a change
// that is meant to move plans.
func TestPlansGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCells() {
		got.WriteString(planLine(c))
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "plans.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, optimizer produced %d", len(wl), len(gl))
	}
	diffs := 0
	for i := range gl {
		if gl[i] != wl[i] {
			if diffs++; diffs <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
	}
	t.Errorf("%d of %d cells differ from testdata/plans.golden", diffs, len(gl))
}
