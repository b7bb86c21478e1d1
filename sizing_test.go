package topk

// Request-sized allocations: a query's k, a page's delta and a concurrency
// bound are caller input — over HTTP, one request's "stop after", "k" or
// "parallel" field. Nothing may be sized by them before any work runs; the
// work itself is bounded by the database (n objects) and by the candidates
// that can be busy at once. At the commit before the fix Run, Cursor.Next,
// WithParallel, WithLive and the CA, MPro, Upper and SR-Combine baselines
// each asked for a block of ≥100 MB here (one request could crash topkd
// with "fatal error: out of memory"); the rest of the registry already
// sized by the database and rides along so it stays that way.

import (
	"runtime"
	"testing"

	"repro/internal/algo"
)

// hugeK is a retrieval size far beyond the database: 120 MB of Items were
// it to size an allocation.
const hugeK = 5_000_000

// sizedAllocLimit is what any of these runs may allocate in total.
const sizedAllocLimit = 8 << 20

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestRequestSizedAllocationsAreBounded(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 200, 2, 3)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	fixed := WithNC([]float64{0.5, 0.5}, nil)
	run := func(t *testing.T, q Query, opts ...RunOption) func() {
		return func() {
			ans, err := eng.Run(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(q.K, ds.N()); len(ans.Items) != want {
				t.Fatalf("%d items, want %d", len(ans.Items), want)
			}
		}
	}
	cases := []struct {
		name string
		fn   func(t *testing.T) func()
	}{
		{"Run/stop-after", func(t *testing.T) func() { return run(t, Query{F: Min(), K: hugeK}, fixed) }},
		{"Run/optimized", func(t *testing.T) func() { return run(t, Query{F: Avg(), K: hugeK}) }},
		{"Cursor.Next", func(t *testing.T) func() {
			return func() {
				cur, err := eng.Open(Query{F: Min(), K: 3}, fixed)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				if _, err := cur.Next(hugeK); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"WithParallel", func(t *testing.T) func() { return run(t, Query{F: Min(), K: 5}, fixed, WithParallel(10_000_000)) }},
		{"WithLive", func(t *testing.T) func() { return run(t, Query{F: Min(), K: 5}, fixed, WithLive(2_000_000)) }},
	}
	for _, name := range algo.Names() {
		cases = append(cases, struct {
			name string
			fn   func(t *testing.T) func()
		}{"WithAlgorithm/" + name, func(t *testing.T) func() {
			return func() {
				if _, err := eng.Run(Query{F: Avg(), K: hugeK}, WithAlgorithm(name)); err != nil {
					t.Fatal(err)
				}
			}
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := allocatedBy(c.fn(t)); got > sizedAllocLimit {
				t.Errorf("allocated %d MB, limit %d MB: something is sized by the request", got>>20, sizedAllocLimit>>20)
			}
		})
	}
}
