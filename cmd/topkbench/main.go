// Command topkbench regenerates the paper's tables and figures (and the
// extension experiments). Each experiment id (E1..E12) maps to one artifact; see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for the recorded results.
//
// Usage:
//
//	topkbench -exp E2            # one experiment at paper-scale defaults
//	topkbench -exp all -quick    # everything, small sizes
//	topkbench -list              # show the experiment registry
//	topkbench -exp E3 -n 2000 -k 25 -seed 7
//	topkbench -serve-bench       # serve-path throughput in queries/sec
//	topkbench -serve-bench -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	topk "repro"
	"repro/internal/bench"
	"repro/internal/data"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (E1..E12) or 'all'")
		n          = flag.Int("n", 0, "database size (0 = experiment default)")
		k          = flag.Int("k", 0, "retrieval size (0 = experiment default)")
		seed       = flag.Int64("seed", 0, "base random seed (0 = default)")
		quick      = flag.Bool("quick", false, "shrink sizes ~8x for a fast smoke run")
		list       = flag.Bool("list", false, "list experiments and exit")
		format     = flag.String("format", "text", "output format: text or csv")
		verify     = flag.Bool("verify", false, "after each experiment, check the paper's shape claim and report PASS/FAIL")
		serveBench = flag.Bool("serve-bench", false, "run the serve-path throughput workload (BENCH_perf.json) and emit queries/sec")
		serveQ     = flag.Int("serve-queries", 2000, "queries per serve-bench case")
		clusterOn  = flag.Bool("cluster", false, "run the scatter-gather throughput workload (BENCH_cluster.json) at 1, 2, and 3 shards")
		clusterN   = flag.Int("cluster-n", 0, "cluster workload dataset size (0 = the BENCH_cluster.json default, 1e6)")
		clusterQ   = flag.Int("cluster-queries", 0, "queries per cluster case (0 = default)")
		clusterC   = flag.Duration("cluster-access-cost", 0, "simulated per-entry service time at each node (0 = default)")
		clusterD   = flag.String("cluster-dist", "", "cluster workload distribution (empty = zipf)")
		storeOn    = flag.Bool("store", false, "run the disk-store workload (BENCH_store.json): IO calibration plus the measured-vs-uniform plan-shift sweep")
		storeN     = flag.Int("store-n", 0, "store workload dataset size (0 = the BENCH_store.json default, 1e6)")
		storeDist  = flag.String("store-dist", "", "store workload distribution (empty = zipf)")
		storeDir   = flag.String("store-root", "", "store cache root (empty = $TOPK_STORE_CACHE or the OS temp dir)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "topkbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "topkbench: %v\n", err)
			}
		}()
	}

	if *serveBench {
		if err := runServeBench(*serveQ); err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: serve-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *clusterOn {
		if err := runClusterBench(*clusterN, *clusterQ, *clusterC, *clusterD); err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: cluster: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *storeOn {
		if err := runStoreBench(*storeN, *storeDist, *storeDir); err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: store: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println("id    paper artifact                                  title")
		for _, e := range bench.Registry() {
			fmt.Printf("%-5s %-47s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	cfg := bench.Config{N: *n, K: *k, Seed: *seed, Quick: *quick}
	failed := false
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Registry()
	} else {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "topkbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		tab, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		var werr error
		switch *format {
		case "text":
			_, werr = tab.WriteTo(os.Stdout)
		case "csv":
			werr = tab.WriteCSV(os.Stdout)
		default:
			werr = fmt.Errorf("unknown format %q (text or csv)", *format)
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "topkbench: %v\n", werr)
			os.Exit(1)
		}
		if *verify {
			if err := bench.VerifyShape(tab); err != nil {
				fmt.Printf("shape %s: FAIL — %v\n\n", e.ID, err)
				failed = true
			} else {
				fmt.Printf("shape %s: PASS\n\n", e.ID)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runServeBench times the BENCH_perf.json serve-path workload — the E1
// query (uniform n=1000 m=2 seed=42, avg, k=10, cs=cr=1) through a fixed
// NC plan and through the optimizer with and without the plan cache — and
// reports each case as queries/sec. Combine with -cpuprofile/-memprofile
// to see where a served query actually spends its time.
func runServeBench(queries int) error {
	if queries <= 0 {
		return fmt.Errorf("need a positive -serve-queries, got %d", queries)
	}
	ds, err := data.Generate(data.Uniform, 1000, 2, 42)
	if err != nil {
		return err
	}
	q := topk.Query{F: topk.Avg(), K: 10}
	fixed := topk.WithNC([]float64{0.5, 0.5}, nil)
	optimized := topk.WithOptimizer(topk.OptimizerConfig{})
	base := topk.DataBackend(ds)
	cases := []struct {
		name    string
		backend topk.Backend
		opts    []topk.EngineOption
		run     []topk.RunOption
	}{
		{"fixed-plan", base, nil, []topk.RunOption{fixed}},
		{"optimizer/no-cache", base, nil, []topk.RunOption{optimized}},
		{"optimizer/plan-cache", base, []topk.EngineOption{topk.WithPlanCache(topk.NewPlanCache(0))}, []topk.RunOption{optimized}},
		{"optimizer/shared", topk.NewSharedAccess(base, topk.SharingOptions{}), []topk.EngineOption{topk.WithPlanCache(topk.NewPlanCache(0))}, []topk.RunOption{optimized}},
	}
	fmt.Printf("serve-path throughput (%d queries per case, E1 workload)\n", queries)
	for _, c := range cases {
		eng, err := topk.NewEngine(c.backend, topk.UniformScenario(2, 1, 1), c.opts...)
		if err != nil {
			return err
		}
		if _, err := eng.Run(q, c.run...); err != nil { // warm pools and cache
			return err
		}
		start := time.Now()
		for i := 0; i < queries; i++ {
			if _, err := eng.Run(q, c.run...); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%-22s %10.0f queries/s   (%s/query)\n",
			c.name, float64(queries)/elapsed.Seconds(), elapsed/time.Duration(queries))
	}
	return nil
}

// runStoreBench drives the BENCH_store.json workload: build-or-open the
// cached store directory, calibrate cs and cr from timed IO (warm and
// cold), then plan each Figure-2 sweep cell under uniform-assumed and
// io-measured costs and bill both plans against the store's real prices.
func runStoreBench(n int, dist, root string) error {
	fmt.Println("disk-store workload (IO-measured calibration + plan-shift sweep; see BENCH_store.json)")
	res, err := bench.RunStoreLoad(bench.StoreLoad{N: n, Dist: dist, Root: root})
	if err != nil {
		return err
	}
	action := "cache hit"
	if res.Built {
		action = "built"
	}
	fmt.Printf("store %s (%s, n=%d m=%d)\n", res.Dir, action, res.N, res.M)
	fmt.Printf("warm calibration: %s   (cr/cs %.1fx)\n", res.Warm.Key(), res.Warm.Ratio())
	fmt.Printf("cold calibration: %s   (cr/cs %.1fx)\n", res.Cold.Key(), res.Cold.Ratio())
	fmt.Printf("%-12s %-5s %-5s %14s %14s %10s\n", "cell", "f", "k", "uniform-plan", "measured-plan", "advantage")
	for _, sh := range res.Shifts {
		fmt.Printf("%-12s %-5s %-5d %12.3fms %12.3fms %9.1f%%\n",
			sh.Cell, sh.F, sh.K, sh.Uniform, sh.Measured, sh.Advantage*100)
	}
	fmt.Printf("best advantage %.1f%%   sweep totals: uniform %.3fms, measured %.3fms\n",
		res.BestAdvantage*100, res.TotalUniform, res.TotalMeasured)
	return nil
}

// runClusterBench drives the BENCH_cluster.json workload at 1, 2, and 3
// shards and reports aggregate throughput plus the node-side entry counts
// (billed accesses + coordinator prefetch overshoot). The 1-shard row is
// the single-node baseline the >=2x cluster gate compares against.
func runClusterBench(n, queries int, accessCost time.Duration, dist string) error {
	fmt.Println("cluster scatter-gather throughput (throttled source nodes; see BENCH_cluster.json)")
	var baseline float64
	for _, shards := range []int{1, 2, 3} {
		res, err := bench.RunClusterLoad(bench.ClusterLoad{
			N: n, Queries: queries, AccessCost: accessCost, Dist: dist, Shards: shards,
		})
		if err != nil {
			return err
		}
		speedup := 1.0
		if shards == 1 {
			baseline = res.QueriesPerSec
		} else if baseline > 0 {
			speedup = res.QueriesPerSec / baseline
		}
		fmt.Printf("%-9s %s   speedup=%.2fx\n", fmt.Sprintf("shards=%d", shards), res, speedup)
	}
	return nil
}
