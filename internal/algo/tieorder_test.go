package algo

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// The tie-order oracle: every registry algorithm must return exactly the
// oracle's ids, equal scores included, on data whose lists tie — zipf
// (scores r/(1+r) for integer r) and correlated (clamped at 1.0). An
// answer that only matches the oracle's scores may still name an object
// that a higher id with the same score outranks under data.Less.

// tieCells are the legal Figure-2 cells, as the facade's end-to-end sweeps
// enumerate them.
func tieCells(m int) []access.Scenario {
	const cost = 10
	return []access.Scenario{
		access.MatrixCell(m, Cheap, Cheap, cost),
		access.MatrixCell(m, Cheap, Expensive, cost),
		access.MatrixCell(m, Cheap, Impossible, cost),
		access.MatrixCell(m, Impossible, Expensive, cost),
		access.MatrixCell(m, Expensive, Cheap, cost),
	}
}

// registryAlgorithms is every algorithm ByName knows plus Framework NC
// under one fixed SR/G configuration.
func registryAlgorithms(t *testing.T) []Algorithm {
	t.Helper()
	algs := []Algorithm{}
	for _, name := range Names() {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, alg)
	}
	nc, err := NewNC([]float64{0.5, 0.5, 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(algs, nc)
}

// applicable reports whether alg is designed for scn: the capability
// checks its Run makes before touching the session.
func applicable(alg Algorithm, scn access.Scenario) bool {
	allSorted, allRandom := true, true
	for _, pc := range scn.Preds {
		allSorted = allSorted && pc.SortedOK
		allRandom = allRandom && pc.RandomOK
	}
	switch alg.Name() {
	case "FA", "TA", "CA", "Quick-Combine", "SR-Combine":
		return allSorted && allRandom
	case "NRA", "Stream-Combine":
		return allSorted
	}
	return true
}

// tieOracleMismatch runs alg and describes how its answer differs from the
// oracle's ids, "" when it does not. Exact answers must list the oracle's
// ids in order; an answer carrying lower bounds (NRA's family proves the
// set, not its order) must hold the oracle's ids. ok is false when alg
// refuses the scoring function (ErrInapplicable).
func tieOracleMismatch(t *testing.T, alg Algorithm, ds *data.Dataset, scn access.Scenario, f score.Func, k int) (mismatch string, ok bool) {
	t.Helper()
	prob, err := NewProblem(f, k, mustSession(t, ds, scn))
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(prob)
	if errors.Is(err, ErrInapplicable) {
		return "", false
	}
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	want := make([]int, 0, k)
	for _, r := range ds.TopK(f.Eval, k) {
		want = append(want, r.Obj)
	}
	got := res.Objects()
	exact := true
	for _, it := range res.Items {
		exact = exact && it.Exact
	}
	if !exact {
		got, want = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("ids %v, oracle %v", got, want), true
	}
	return "", true
}

// TestRegistryTieOrderOracle holds every registry algorithm to the oracle's
// ids across the Figure-2 cells × {min, avg, max} × k ∈ {1, 10, 50} on
// zipf and correlated data, and on a deeper zipf table under min, where
// the first ranks of every list tie.
func TestRegistryTieOrderOracle(t *testing.T) {
	const m = 3
	type table struct {
		ds  *data.Dataset
		fns []score.Func
	}
	tables := []table{
		{datatest.MustGenerate(data.Zipf, 2000, m, 1), []score.Func{score.Min(), score.Avg(), score.Max()}},
		{datatest.MustGenerate(data.Correlated, 2000, m, 1), []score.Func{score.Min(), score.Avg(), score.Max()}},
	}
	if !testing.Short() {
		tables = append(tables, table{datatest.MustGenerate(data.Zipf, 20000, m, 1), []score.Func{score.Min()}})
	}
	for _, tb := range tables {
		for _, alg := range registryAlgorithms(t) {
			if _, nc := alg.(*NC); tb.ds.N() > 2000 && !nc && !slices.Contains([]string{"TA", "MPro", "Upper"}, alg.Name()) {
				continue // the O(n)-per-round halting tests of the rest take minutes here
			}
			for _, scn := range tieCells(m) {
				if !applicable(alg, scn) {
					continue
				}
				for _, f := range tb.fns {
					for _, k := range []int{1, 10, 50} {
						if msg, ok := tieOracleMismatch(t, alg, tb.ds, scn, f, k); ok && msg != "" {
							t.Errorf("%s on %s, %s, %s, k=%d: %s", alg.Name(), tb.ds.Name(), scn.Name, f.Name(), k, msg)
						}
					}
				}
			}
		}
	}
}

// TestNCTieOrderHGrid sweeps Framework NC's depths over a 6³ grid on the
// served deep workload's data — zipf, n = 10⁵, m = 3, seed 1, cs = cr = 1 —
// where a plan's depths decide which ties a run meets before it stops.
func TestNCTieOrderHGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("2 x 216 runs over 10^5 objects")
	}
	ds := datatest.MustGenerate(data.Zipf, 100000, 3, 1)
	scn := access.Uniform(3, 1, 1)
	grid := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	// Under min a run meets ties wherever one list's bound pins F; avg
	// passed the same grid before the tie rule too.
	for _, f := range []score.Func{score.Min()} {
		for _, k := range []int{10, 50} {
			failed := 0
			for _, h1 := range grid {
				for _, h2 := range grid {
					for _, h3 := range grid {
						alg, err := NewNC([]float64{h1, h2, h3}, nil)
						if err != nil {
							t.Fatal(err)
						}
						if msg, _ := tieOracleMismatch(t, alg, ds, scn, f, k); msg != "" {
							if failed++; failed <= 3 {
								t.Errorf("%s, %s, k=%d: %s", alg.Name(), f.Name(), k, msg)
							}
						}
					}
				}
			}
			if failed > 0 {
				t.Errorf("%s, k=%d: %d of %d configurations return other ids than the oracle", f.Name(), k, failed, len(grid)*len(grid)*len(grid))
			}
		}
	}
}
