package data

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestProjectValidation(t *testing.T) {
	ds := MustGenerate(Uniform, 10, 3, 1)
	if _, err := Project(ds, nil); err == nil {
		t.Error("empty projection should fail")
	}
	if _, err := Project(ds, []int{0, 5}); err == nil {
		t.Error("out-of-range column should fail")
	}
	if _, err := Project(ds, []int{0, 0}); err == nil {
		t.Error("duplicate column should fail")
	}
	same, err := Project(ds, []int{0, 1, 2})
	if err != nil || same != ds {
		t.Error("identity projection should return the same dataset")
	}
	sub, err := Project(ds, []int{2})
	if err != nil || sub.M() != 1 || sub.Score(3, 0) != ds.Score(3, 2) {
		t.Errorf("subset projection wrong: %v", err)
	}
}

// freshProjection materializes cols of ds the way Project used to: a copied
// matrix handed to New, which re-sorts every column.
func freshProjection(ds *Dataset, cols []int, labels []string) *Dataset {
	rows := make([][]float64, ds.N())
	for u := range rows {
		rows[u] = make([]float64, len(cols))
		for i, c := range cols {
			rows[u][i] = ds.Score(u, c)
		}
	}
	out := MustNew(ds.Name()+"/projected", rows)
	if labels != nil {
		out.SetLabels(labels)
	}
	return out
}

// TestProjectAgreesWithFreshCopy: a projection is a view sharing its
// parent's matrix and sorted lists, and must be indistinguishable from a
// dataset built from the projected columns — for random subsets and
// permutations, with tied scores, and for a projection of a projection.
func TestProjectAgreesWithFreshCopy(t *testing.T) {
	const n, m = 200, 5
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, n)
	for u := range rows {
		rows[u] = make([]float64, m)
		for i := range rows[u] {
			rows[u][i] = float64(rng.Intn(20)) / 19 // coarse grid: plenty of ties
		}
	}
	ds := MustNew("grid", rows)
	labels := []string{"alpha", "beta", "gamma"}
	ds.SetLabels(labels)
	sum := func(s []float64) float64 {
		t := 0.0
		for i, v := range s {
			t += float64(i+1) * v
		}
		return t
	}
	check := func(view, want *Dataset) {
		t.Helper()
		if view.N() != want.N() || view.M() != want.M() || view.Name() != want.Name() {
			t.Fatalf("shape %s %dx%d, want %s %dx%d", view.Name(), view.N(), view.M(), want.Name(), want.N(), want.M())
		}
		for u := 0; u < n; u++ {
			if !reflect.DeepEqual(view.Scores(u), want.Scores(u)) || view.Label(u) != want.Label(u) {
				t.Fatalf("object %d: scores %v label %q, want %v %q", u, view.Scores(u), view.Label(u), want.Scores(u), want.Label(u))
			}
			for i := 0; i < want.M(); i++ {
				if view.Score(u, i) != want.Score(u, i) {
					t.Fatalf("Score(%d,%d) = %v, want %v", u, i, view.Score(u, i), want.Score(u, i))
				}
			}
		}
		for i := 0; i < want.M(); i++ {
			for r := 0; r < n; r++ {
				vo, vs := view.SortedAt(i, r)
				wo, ws := want.SortedAt(i, r)
				if vo != wo || vs != ws {
					t.Fatalf("SortedAt(%d,%d) = (%d,%v), want (%d,%v)", i, r, vo, vs, wo, ws)
				}
			}
		}
		if got, exp := view.TopK(sum, 25), want.TopK(sum, 25); !reflect.DeepEqual(got, exp) {
			t.Fatalf("TopK diverged: %v, want %v", got, exp)
		}
		var vj, wj bytes.Buffer
		if err := view.WriteJSON(&vj); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteJSON(&wj); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vj.Bytes(), wj.Bytes()) {
			t.Fatal("WriteJSON diverged from the fresh copy's")
		}
	}
	for trial := 0; trial < 50; trial++ {
		cols := rng.Perm(m)[:1+rng.Intn(m)]
		if len(cols) == m && sort.IntsAreSorted(cols) {
			continue // identity returns ds itself, covered by TestProjectValidation
		}
		view, err := Project(ds, cols)
		if err != nil {
			t.Fatalf("Project(%v): %v", cols, err)
		}
		check(view, freshProjection(ds, cols, labels))
		// Re-project the view: the column maps must compose.
		sub := rng.Perm(len(cols))[:1+rng.Intn(len(cols))]
		again, err := Project(view, sub)
		if err != nil {
			t.Fatalf("Project(view %v, %v): %v", cols, sub, err)
		}
		if again == view {
			continue
		}
		want := freshProjection(view, sub, labels)
		if again.Name() != want.Name() {
			t.Fatalf("nested name %q, want %q", again.Name(), want.Name())
		}
		check(again, want)
	}
}

// TestProjectCostIndependentOfN: projecting shares the parent's storage, so
// it allocates the same handful of objects at n=100 and n=100000.
func TestProjectCostIndependentOfN(t *testing.T) {
	for _, n := range []int{100, 100000} {
		ds := MustGenerate(Uniform, n, 3, 1)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Project(ds, []int{2, 0}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("n=%d: Project allocates %v objects, want <= 3", n, allocs)
		}
	}
}
