package opt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// projectedCopy copies cols of sample into a dataset of its own, under the
// sample's name: a query over cols planned on such a copy before the
// estimator read its sample through Config.Cols.
func projectedCopy(t testing.TB, sample *data.Dataset, cols []int) *data.Dataset {
	t.Helper()
	view, err := data.Project(sample, cols)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, view.N())
	for u := range rows {
		rows[u] = view.Scores(u)
	}
	return datatest.MustNew(sample.Name(), rows)
}

// orderedColLists returns every ordered list of 1 to m distinct columns
// of m.
func orderedColLists(m int) [][]int {
	var lists [][]int
	var grow func(cols []int)
	grow = func(cols []int) {
		if len(cols) > 0 {
			lists = append(lists, slices.Clone(cols))
		}
		for c := 0; c < m; c++ {
			if !slices.Contains(cols, c) {
				grow(append(cols, c))
			}
		}
	}
	grow(nil)
	return lists
}

// TestColsMatchProjectedCopy: a plan searched on a sample read through
// Config.Cols is the plan searched on that sample's projection copied into
// a dataset of its own, in H, Omega, EstimatedCost, Evals and the order of
// the estimator's simulations and memo hits. It covers every ordered list
// of 1-3 columns of a 500-row real sample, the five Figure-2 cells, min and
// avg (and a weighted sum over three columns), k in {1, 10, 50}, and the
// HClimb, Strategies and Naive(g=5) searches.
func TestColsMatchProjectedCopy(t *testing.T) {
	const m, n = 3, 100000
	sample, err := access.Sample(context.Background(), access.DatasetBackend{DS: datatest.MustGenerate(data.Correlated, 4000, m, 11)}, 500, 5, "real500")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []struct {
		name string
		cfg  Config
	}{
		{"HClimb", Config{Scheme: SchemeHClimb, Seed: 1}},
		{"Strategies", Config{Scheme: SchemeStrategies, Seed: 1}},
		{"Naive5", Config{Scheme: SchemeNaive, Grid: 5, Seed: 1}},
	}
	cells := 0
	for _, cols := range orderedColLists(m) {
		copied := projectedCopy(t, sample, cols)
		funcs := []score.Func{score.Min(), score.Avg()}
		if len(cols) == 3 {
			funcs = append(funcs, score.Weighted(0.3, 0.25, 0.45))
		}
		for _, sch := range schemes {
			for _, sc := range figure2Scenarios(len(cols)) {
				for _, f := range funcs {
					for _, k := range []int{1, 10, 50} {
						name := fmt.Sprintf("%v/%s/%s/%s/k=%d", cols, sch.name, sc.name, f.Name(), k)
						read, ref := sch.cfg, sch.cfg
						read.Sample, read.Cols = sample, cols
						ref.Sample = copied
						got, gotEvents, gotErr := optimizeStream(read, sc.scn, f, k, n)
						want, wantEvents, wantErr := optimizeStream(ref, sc.scn, f, k, n)
						if gotErr != nil || wantErr != nil {
							t.Fatalf("%s: error %v on the sample's columns, %v on the copy", name, gotErr, wantErr)
						}
						if !slices.Equal(got.H, want.H) || !slices.Equal(got.Omega, want.Omega) ||
							got.EstimatedCost != want.EstimatedCost || got.Evals != want.Evals {
							t.Errorf("%s:\n on the sample's columns %s\n on the copy            %s", name, formatPlan(got), formatPlan(want))
						}
						if !bytes.Equal(gotEvents, wantEvents) {
							t.Errorf("%s: estimator events differ:\n on the sample's columns %s\n on the copy            %s", name, gotEvents, wantEvents)
						}
						cells++
					}
				}
			}
		}
	}
	t.Logf("%d cells", cells)
}

// optimizeStream is Optimize with the EstimatorEval stream it emitted.
func optimizeStream(cfg Config, scn access.Scenario, f score.Func, k, n int) (Plan, []byte, error) {
	stream := &evalStream{}
	cfg.Observer = stream
	p, err := Optimize(cfg, scn, f, k, n)
	return p, stream.seq, err
}

// TestColsNeedASample: Cols selects columns of a given sample; without one
// every planning entry point refuses it instead of planning on the dummy.
// Columns the sample does not have are refused too.
func TestColsNeedASample(t *testing.T) {
	scn, f := access.Uniform(2, 1, 1), score.Avg()
	noSample := Config{Cols: []int{1, 0}}
	for _, scheme := range []Scheme{SchemeHClimb, SchemeGreedy} {
		cfg := noSample
		cfg.Scheme = scheme
		if _, err := Optimize(cfg, scn, f, 5, 1000); !errors.Is(err, errColsWithoutSample) {
			t.Errorf("Optimize under %v: err = %v, want errColsWithoutSample", scheme, err)
		}
	}
	if _, err := NewPlanCache(0).Get(noSample, scn, f, 5, 1000); !errors.Is(err, errColsWithoutSample) {
		t.Errorf("PlanCache.Get: err = %v, want errColsWithoutSample", err)
	}
	if _, err := EstimateConfiguration(noSample, scn, f, 5, 1000, []float64{1, 1}, []int{0, 1}); !errors.Is(err, errColsWithoutSample) {
		t.Errorf("EstimateConfiguration: err = %v, want errColsWithoutSample", err)
	}

	sample := datatest.MustDummySample(40, 3, 1)
	for _, cols := range [][]int{{}, {0, 3}, {-1, 0}, {1, 1}} {
		cfg := Config{Sample: sample, Cols: cols}
		if _, err := Optimize(cfg, access.Uniform(len(cols), 1, 1), f, 5, 1000); err == nil {
			t.Errorf("Cols %v of a 3-column sample planned", cols)
		}
	}
	if _, err := Optimize(Config{Sample: sample, Cols: []int{2, 0}}, access.Uniform(3, 1, 1), f, 5, 1000); err == nil {
		t.Error("a 3-predicate scenario over 2 columns planned")
	}
	if _, err := Optimize(Config{Sample: sample, Cols: []int{2, 0}}, scn, f, 5, 1000); err != nil {
		t.Errorf("Cols [2 0] of a 3-column sample: %v", err)
	}
}
