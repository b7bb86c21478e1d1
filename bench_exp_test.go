package topk_test

// Benchmarks regenerating the paper's tables and figures: one Benchmark
// per experiment id (see DESIGN.md's per-experiment index). Each iteration
// runs the experiment end-to-end in quick mode, so `go test -bench .`
// doubles as a smoke run of the whole harness; use cmd/topkbench for the
// paper-scale outputs recorded in EXPERIMENTS.md. They live in the external
// test package because internal/bench imports the facade.

import (
	"testing"

	"repro/internal/bench"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.Config{Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkExpE1(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkExpE2(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkExpE3(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkExpE4(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkExpE5(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkExpE6(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkExpE7(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkExpE8(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkExpE9(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkExpE10(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkExpE11(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkExpE12(b *testing.B) { benchExperiment(b, "E12") }
