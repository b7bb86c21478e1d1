package topk

// The Benchmark*Algo micro-benchmarks measure the per-access bookkeeping
// overhead of the middleware algorithms themselves (the costs the paper's
// model deliberately ignores in favor of access costs).

import (
	"testing"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/obs"
	"repro/internal/score"
)

// benchAlgorithm measures one full query execution (n=1000, m=2, k=10).
func benchAlgorithm(b *testing.B, mk func() algo.Algorithm, scn access.Scenario, f score.Func) {
	ds := datatest.MustGenerate(data.Uniform, 1000, 2, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := access.NewSession(access.DatasetBackend{DS: ds}, scn)
		if err != nil {
			b.Fatal(err)
		}
		prob, err := algo.NewProblem(f, 10, sess)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mk().Run(prob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoNC(b *testing.B) {
	benchAlgorithm(b, func() algo.Algorithm {
		a, err := algo.NewNC([]float64{0.5, 0.5}, nil)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}, access.Uniform(2, 1, 1), score.Min())
}

func BenchmarkAlgoTA(b *testing.B) {
	benchAlgorithm(b, func() algo.Algorithm { return algo.TA{} }, access.Uniform(2, 1, 1), score.Min())
}

func BenchmarkAlgoNRA(b *testing.B) {
	benchAlgorithm(b, func() algo.Algorithm { return algo.NRA{} },
		access.MatrixCell(2, access.Cheap, access.Impossible, 10), score.Avg())
}

func BenchmarkAlgoCA(b *testing.B) {
	benchAlgorithm(b, func() algo.Algorithm { return algo.CA{} },
		access.MatrixCell(2, access.Cheap, access.Expensive, 10), score.Avg())
}

func BenchmarkAlgoMPro(b *testing.B) {
	benchAlgorithm(b, func() algo.Algorithm { return algo.MPro{} },
		access.MatrixCell(2, access.Impossible, access.Expensive, 10), score.Min())
}

// BenchmarkOptimizerHClimb measures one full plan search (dummy sample,
// 11-point grid, 5 restarts) — the optimization overhead a middleware pays
// per query.
func BenchmarkOptimizerHClimb(b *testing.B) {
	ds := datatest.MustGenerate(data.Uniform, 1000, 2, 9)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 10))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(Query{F: Min(), K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserverOverhead prices the observability layer on the E1
// workload (uniform data, avg scoring, cs=cr=1, fixed NC configuration):
// the same query uninstrumented, through the no-op observer, through a
// registry-backed metrics observer, and with a per-query trace. The first
// two must be indistinguishable (the nil-guarded default path costs
// nothing); the gap to the latter two is the per-event price an operator
// pays. BENCH_obs.json records the committed baseline.
func BenchmarkObserverOverhead(b *testing.B) {
	ds := datatest.MustGenerate(data.Uniform, 1000, 2, 42)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	q := Query{F: Avg(), K: 10}
	fixed := WithNC([]float64{0.5, 0.5}, nil)
	reg := NewMetricsRegistry()
	metrics := NewMetricsObserver(reg)
	cases := []struct {
		name string
		opts []RunOption
	}{
		{"uninstrumented", []RunOption{fixed}},
		{"nop", []RunOption{fixed, WithObserver(obs.Nop{})}},
		{"metrics", []RunOption{fixed, WithObserver(metrics)}},
		{"trace", []RunOption{fixed, WithTrace()}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(q, c.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelExecutor measures a B=8 simulated-concurrency run.
func BenchmarkParallelExecutor(b *testing.B) {
	ds := datatest.MustGenerate(data.Uniform, 1000, 2, 9)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(Query{F: Min(), K: 10}, WithParallel(8), WithNC([]float64{0.5, 0.5}, nil)); err != nil {
			b.Fatal(err)
		}
	}
}
