package bench_test

// TestServeAllocGate is the allocation-regression gate: a fast, plain-test
// (no -bench flag needed) check that the serve path still meets the
// committed BENCH_perf.json budget. It fails when a change reintroduces
// per-query allocation — the cheap early warning; the full throughput
// picture comes from BenchmarkServeThroughput.

import (
	"encoding/json"
	"os"
	"testing"

	topk "repro"
	"repro/internal/bench"
	"repro/internal/data"
	"repro/internal/data/datatest"
)

type perfBaseline struct {
	Baseline struct {
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"baseline"`
	Gate struct {
		MaxAllocsFixed       float64 `json:"max_allocs_per_op_fixed"`
		MaxAllocsCachedOpt   float64 `json:"max_allocs_per_op_cached_opt"`
		MaxAllocsUncachedOpt float64 `json:"max_allocs_per_op_uncached_opt"`
		MinReduction         float64 `json:"min_alloc_reduction_factor"`
	} `json:"gate"`
}

func loadPerfBaseline(t *testing.T) perfBaseline {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_perf.json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var pb perfBaseline
	if err := json.Unmarshal(raw, &pb); err != nil {
		t.Fatalf("BENCH_perf.json unparseable: %v", err)
	}
	if pb.Baseline.AllocsPerOp == 0 || pb.Gate.MaxAllocsFixed == 0 || pb.Gate.MaxAllocsCachedOpt == 0 || pb.Gate.MaxAllocsUncachedOpt == 0 {
		t.Fatal("BENCH_perf.json gate values incomplete")
	}
	return pb
}

func TestServeAllocGate(t *testing.T) {
	if testing.Short() || bench.RaceEnabled {
		t.Skip("alloc gate needs steady-state measurement on a pool that keeps what it is given")
	}
	pb := loadPerfBaseline(t)
	ds := datatest.MustGenerate(data.Uniform, 1000, 2, 42)
	q := topk.Query{F: topk.Avg(), K: 10}

	eng, err := topk.NewEngine(topk.DataBackend(ds), topk.UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	fixed := topk.WithNC([]float64{0.5, 0.5}, nil)
	run := func() {
		if _, err := eng.Run(q, fixed); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the session/scratch pool to steady state
	if got := testing.AllocsPerRun(50, run); got > pb.Gate.MaxAllocsFixed {
		t.Errorf("fixed-plan serve path allocates %.1f/op, gate is %.0f", got, pb.Gate.MaxAllocsFixed)
	} else if factor := pb.Baseline.AllocsPerOp / got; factor < pb.Gate.MinReduction {
		t.Errorf("alloc reduction vs pre-PR baseline is %.1fx, contract is >=%.0fx", factor, pb.Gate.MinReduction)
	}

	cached, err := topk.NewEngine(topk.DataBackend(ds), topk.UniformScenario(2, 1, 1),
		topk.WithPlanCache(topk.NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	optimized := topk.WithOptimizer(topk.OptimizerConfig{})
	runOpt := func() {
		if _, err := cached.Run(q, optimized); err != nil {
			t.Fatal(err)
		}
	}
	runOpt() // first run misses and pays the HClimb search; the rest hit
	if got := testing.AllocsPerRun(50, runOpt); got > pb.Gate.MaxAllocsCachedOpt {
		t.Errorf("cached optimizer serve path allocates %.1f/op, gate is %.0f", got, pb.Gate.MaxAllocsCachedOpt)
	}

	// Without a plan cache every run pays the full HClimb search, on the
	// optimizer's pooled planning arena.
	runCold := func() {
		if _, err := eng.Run(q, optimized); err != nil {
			t.Fatal(err)
		}
	}
	runCold() // warm the arena pool
	if got := testing.AllocsPerRun(50, runCold); got > pb.Gate.MaxAllocsUncachedOpt {
		t.Errorf("uncached optimizer serve path allocates %.1f/op, gate is %.0f", got, pb.Gate.MaxAllocsUncachedOpt)
	}
}
