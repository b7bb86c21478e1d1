// Command benchmark measures topkd where its users sit: it builds the real
// binary, deploys it five ways, drives each deployment over loopback HTTP in
// a closed loop, checks every answer against topk.TopKOracle and reports
// end-to-end and per-layer metrics. See README.md in this directory.
//
//	go run ./benchmark                                   # every workload, both passes
//	go run ./benchmark -workload mem_point -trace 0      # one pass of one workload
//	go run ./benchmark -repeat 2                         # repeatability self-check
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	// Unpinned the numbers are still right, only noisier.
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: running unpinned:", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultSeconds is the timed phase's length, BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// record is one finished pass as results.json keeps it.
type record struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Set      int    `json:"set"`
	Result   result `json:"result"`
}

func run(ctx context.Context) (err error) {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of the operation order")
		seconds = flag.Float64("seconds", defaultSeconds, "length of each timed phase")
		trace   = flag.Int("trace", -1, "0: end-to-end pass only; 1: traced per-layer pass only (default: both)")
		repeat  = flag.Int("repeat", 1, "run the end-to-end pass this many times and fail if two sets differ by more than a metric's bound")
	)
	flag.Parse()
	if *trace < -1 || *trace > 1 || *repeat < 1 || *seconds <= 0 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments; see -help")
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin, err := buildTopkd(ctx)
	if err != nil {
		return err
	}
	cfg := config{bin: bin, seed: *seed, seconds: *seconds}

	var records []record
	failed := 0
	finish := func(w workload, pass, set int, defs []metricDef, res result) error {
		records = append(records, record{Workload: w.name, Trace: pass, Set: set, Result: res})
		failed += res.Failed
		for _, d := range defs {
			fmt.Printf("%-12s %-38s %16.6f %s\n", w.name, d.name, res.Metrics[d.name].Value, d.unit)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	if *trace != 1 {
		for set := 0; set < *repeat; set++ {
			for _, w := range selected {
				res, err := runE2E(ctx, cfg, w)
				if err != nil {
					return err
				}
				if err := finish(w, 0, set, endToEnd, res); err != nil {
					return err
				}
			}
		}
	}
	if *trace != 0 {
		tr := newTracer()
		// Flushed on every way out, so a failed run still leaves its spans.
		defer func() {
			if ferr := tr.flush(filepath.Join(outDir, "trace.json")); err == nil {
				err = ferr
			}
		}()
		ladderValues, err := runLadder(ctx, tr)
		if err != nil {
			return err
		}
		for _, w := range selected {
			res, err := runTraced(ctx, cfg, w, tr, ladderValues)
			if err != nil {
				return err
			}
			if err := finish(w, 1, 0, perLayer, res); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), b, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return compareSets(records)
}

// compareSets is the -repeat self-check: every end-to-end metric of every
// workload must agree between any two sets to within the metric's own bound.
func compareSets(records []record) error {
	first := map[string]result{}
	var diffs []string
	for _, r := range records {
		if r.Trace != 0 {
			continue
		}
		base, seen := first[r.Workload]
		if !seen {
			first[r.Workload] = r.Result
			continue
		}
		for _, d := range endToEnd {
			a, b := base.Metrics[d.name].Value, r.Result.Metrics[d.name].Value
			if diff := math.Abs(a-b) / math.Min(a, b); diff > d.bound {
				diffs = append(diffs, fmt.Sprintf("%s %s: set 0 has %g, set %d has %g: %.1f%% apart, bound %.1f%%",
					r.Workload, d.name, a, r.Set, b, 100*diff, 100*d.bound))
			}
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("sets of the same code disagree:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}
