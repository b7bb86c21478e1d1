package topk

import (
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/opt"
)

// TestExplainPlansEveryColumnListOnTheSample explains a query over each of
// the 80 ordered lists of two and three of five columns on an engine with
// its own sample, and requires each plan to be the one searched on that
// sample's projection onto the list, copied into a dataset of its own: no
// column list, however many came before it, plans on anything else.
func TestExplainPlansEveryColumnListOnTheSample(t *testing.T) {
	const n, m = 100000, 5
	ds := mustGenerateDataset(t, "zipf", n, m, 7)
	scn := UniformScenario(m, 1, 1)
	eng, err := NewEngine(DataBackend(ds), scn)
	if err != nil {
		t.Fatal(err)
	}
	if eng.sample == nil {
		t.Fatal("an engine over n = 1e5 drew no sample")
	}
	var lists [][]int
	for a := range m {
		for b := range m {
			if b == a {
				continue
			}
			lists = append(lists, []int{a, b})
		}
	}
	for a := range m {
		for b := range m {
			for c := range m {
				if b != a && c != a && c != b {
					lists = append(lists, []int{a, b, c})
				}
			}
		}
	}
	if len(lists) != 80 {
		t.Fatalf("%d column lists, want 80", len(lists))
	}
	wrong := 0
	for _, cols := range lists {
		q := Query{F: Avg(), K: 10, Cols: cols}
		got, err := eng.Explain(q, OptimizerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		view, err := data.Project(eng.sample, cols)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, view.N())
		for u := range rows {
			rows[u] = view.Scores(u)
		}
		copied, err := data.New(eng.sample.Name(), rows)
		if err != nil {
			t.Fatal(err)
		}
		projected, err := access.ProjectScenario(scn, cols)
		if err != nil {
			t.Fatal(err)
		}
		want, err := opt.Optimize(OptimizerConfig{Sample: copied}, projected, q.F, q.K, n)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.H, want.H) || !slices.Equal(got.Omega, want.Omega) ||
			got.EstimatedCost != want.EstimatedCost || got.Evals != want.Evals {
			wrong++
			t.Errorf("cols %v: Explain planned H=%v Omega=%v cost=%v evals=%d, the sample's projection H=%v Omega=%v cost=%v evals=%d",
				cols, got.H, got.Omega, got.EstimatedCost, got.Evals, want.H, want.Omega, want.EstimatedCost, want.Evals)
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d column lists planned on something other than the engine's sample", wrong, len(lists))
	}
}
