package bench_test

// BenchmarkSharedThroughput prices the cross-query sharing layer on the
// serve path: many concurrent queries over the E1 workload (uniform
// n=1000 m=2 seed=42, avg, k=10, cs=cr=1), with sharing off and on.
// Sharing's contract is access reduction, not latency — the interesting
// outputs are queries/s (must stay in the same league as unshared) and
// backend-accesses/query (must collapse). BENCH_share.json records the
// committed baseline; TestSharedAccessGate (internal/service) enforces
// the reduction factor end to end.

import (
	"testing"

	topk "repro"
	"repro/internal/data"
	"repro/internal/data/datatest"
)

func BenchmarkSharedThroughput(b *testing.B) {
	q := topk.Query{F: topk.Avg(), K: 10}
	fixed := topk.WithNC([]float64{0.5, 0.5}, nil)

	run := func(b *testing.B, eng *topk.Engine) {
		b.Helper()
		if _, err := eng.Run(q, fixed); err != nil { // warm pools (and caches)
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := eng.Run(q, fixed); err != nil {
					b.Error(err)
					return
				}
			}
		})
		reportQPS(b)
	}

	b.Run("unshared/parallel", func(b *testing.B) {
		run(b, e1Engine(b))
	})
	b.Run("shared/parallel", func(b *testing.B) {
		ds := datatest.MustGenerate(data.Uniform, 1000, 2, 42)
		layer := topk.NewSharedAccess(topk.DataBackend(ds), topk.SharingOptions{})
		eng, err := topk.NewEngine(layer, topk.UniformScenario(2, 1, 1))
		if err != nil {
			b.Fatal(err)
		}
		run(b, eng)
		if b.N > 1 {
			st := layer.Stats()
			total := float64(st.BackendSorted + st.BackendRandom)
			b.ReportMetric(total/float64(b.N), "backend-accesses/query")
		}
	})
}
