// Command topkrun executes a single top-k query against a synthetic
// dataset or the travel-agent benchmark, with any algorithm in the
// library, and reports the answers, the access ledger, and (optionally)
// the full access trace.
//
// Usage examples:
//
//	topkrun -dist uniform -n 1000 -m 2 -f min -k 5
//	topkrun -f avg -algo TA -cs 1 -cr 10
//	topkrun -bench q1 -k 5 -algo opt
//	topkrun -f min -algo nc -H 0.3,1 -omega 1,0 -trace
//	topkrun -f min -algo opt -parallel 8
//	topkrun -query "select name from q1 order by min(rating, closeness) stop after 5"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/score"
	"repro/internal/sqlq"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "topkrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dist     = flag.String("dist", "uniform", "dataset distribution (uniform|gaussian|skewed|correlated|anticorrelated)")
		benchQ   = flag.String("bench", "", "use a travel benchmark instead: q1 (restaurants) or q2 (hotels)")
		n        = flag.Int("n", 1000, "number of objects")
		m        = flag.Int("m", 2, "number of predicates")
		k        = flag.Int("k", 5, "retrieval size")
		seed     = flag.Int64("seed", 1, "random seed")
		fname    = flag.String("f", "min", "scoring function (min|max|avg|product|geomean)")
		algoName = flag.String("algo", "opt", "algorithm: opt, nc, adaptive, or a baseline (FA|TA|CA|NRA|MPro|Upper|Quick-Combine|Stream-Combine)")
		hFlag    = flag.String("H", "", "NC depths, comma-separated (with -algo nc)")
		omFlag   = flag.String("omega", "", "NC probe schedule, comma-separated predicate indices")
		cs       = flag.Float64("cs", 1, "sorted access unit cost")
		cr       = flag.Float64("cr", 1, "random access unit cost")
		par      = flag.Int("parallel", 0, "concurrency bound (0 = sequential)")
		trace    = flag.Bool("trace", false, "print the access trace")
		queryStr = flag.String("query", "", `SQL-like query, e.g. "select name from q1 order by min(rating, closeness) stop after 5"; tables: q1, q2, or a distribution name with predicates p1..pm`)
	)
	flag.Parse()

	// Dataset and query context.
	var ds *data.Dataset
	var labels bool
	var f score.Func
	var err error
	kVal := *k

	if *queryStr != "" {
		pq, err := sqlq.Parse(*queryStr)
		if err != nil {
			return err
		}
		ds, labels, err = resolveTable(pq.From, *n, *m, *seed)
		if err != nil {
			return err
		}
		cols, err := sqlq.Bind(pq, tableColumns(pq.From, ds.M()))
		if err != nil {
			return err
		}
		ds, err = projectColumns(ds, cols)
		if err != nil {
			return err
		}
		f, kVal = pq.Func, pq.K
		fmt.Println("query:", pq)
	} else {
		f, err = score.ByName(*fname)
		if err != nil {
			return err
		}
		switch *benchQ {
		case "":
			d, err := data.DistributionByName(*dist)
			if err != nil {
				return err
			}
			ds, err = data.Generate(d, *n, *m, *seed)
			if err != nil {
				return err
			}
		case "q1":
			q, _, err := data.Restaurants(*n, *seed)
			if err != nil {
				return err
			}
			ds, labels = q.Dataset, true
			f = score.Min()
		case "q2":
			q, _, err := data.Hotels(*n, *seed)
			if err != nil {
				return err
			}
			ds, labels = q.Dataset, true
			f = score.Avg()
		default:
			return fmt.Errorf("unknown benchmark %q (want q1 or q2)", *benchQ)
		}
	}
	scn := access.Uniform(ds.M(), *cs, *cr)

	var opts []access.Option
	if *trace {
		opts = append(opts, access.WithTrace())
	}
	sess, err := access.NewSession(access.DatasetBackend{DS: ds}, scn, opts...)
	if err != nil {
		return err
	}
	prob, err := algo.NewProblem(f, kVal, sess)
	if err != nil {
		return err
	}

	// Resolve the execution strategy.
	var items []algo.Item
	var elapsed float64
	switch {
	case *par > 0:
		h, omega, err := resolveConfig(*algoName, *hFlag, *omFlag, scn, f, kVal, ds.N(), *seed)
		if err != nil {
			return err
		}
		sel, err := algo.NewSRG(h, omega)
		if err != nil {
			return err
		}
		res, err := (&parallel.Executor{B: *par, Sel: sel}).Run(context.Background(), prob, nil)
		if err != nil {
			return err
		}
		items, elapsed = res.Items, res.Elapsed
		fmt.Printf("parallel B=%d  elapsed=%.2f units\n", *par, elapsed)
	case *algoName == "opt", *algoName == "nc", *algoName == "adaptive":
		if *algoName == "adaptive" {
			a := &opt.Adaptive{Cfg: opt.Config{Seed: *seed}}
			res, err := a.Run(prob)
			if err != nil {
				return err
			}
			items = res.Items
			fmt.Printf("adaptive: %d re-plan(s)\n", a.Replans)
			break
		}
		h, omega, err := resolveConfig(*algoName, *hFlag, *omFlag, scn, f, kVal, ds.N(), *seed)
		if err != nil {
			return err
		}
		fmt.Printf("NC configuration: H=%v Omega=%v\n", h, omega)
		alg, err := algo.NewNC(h, omega)
		if err != nil {
			return err
		}
		res, err := alg.Run(prob)
		if err != nil {
			return err
		}
		items = res.Items
	default:
		alg, err := algo.ByName(*algoName)
		if err != nil {
			return err
		}
		res, err := alg.Run(prob)
		if err != nil {
			return err
		}
		items = res.Items
	}

	// Report.
	fmt.Printf("top-%d by %s over %s:\n", kVal, f.Name(), ds.Name())
	for i, it := range items {
		name := fmt.Sprintf("u%d", it.Obj)
		if labels {
			name = ds.Label(it.Obj)
		}
		exact := ""
		if !it.Exact {
			exact = " (score is a lower bound)"
		}
		fmt.Printf("%3d. %-18s %.4f%s\n", i+1, name, it.Score, exact)
	}
	l := sess.Ledger()
	fmt.Printf("accesses: sorted=%v random=%v  total cost=%.2f units\n",
		l.SortedCounts, l.RandomCounts, l.TotalCost.Units())
	if *trace {
		fmt.Println("trace:")
		for _, rec := range sess.Trace() {
			fmt.Println("  ", rec)
		}
	}
	return nil
}

// resolveConfig returns the SR/G configuration: parsed from flags for
// "nc", optimizer-chosen for "opt".
func resolveConfig(mode, hFlag, omFlag string, scn access.Scenario, f score.Func, k, n int, seed int64) ([]float64, []int, error) {
	if mode == "nc" || hFlag != "" {
		h, err := parseFloats(hFlag)
		if err != nil {
			return nil, nil, fmt.Errorf("-H: %w", err)
		}
		var omega []int
		if omFlag != "" {
			omega, err = parseInts(omFlag)
			if err != nil {
				return nil, nil, fmt.Errorf("-omega: %w", err)
			}
		}
		return h, omega, nil
	}
	plan, err := opt.Optimize(opt.Config{Seed: seed}, scn, f, k, n)
	if err != nil {
		return nil, nil, err
	}
	return plan.H, plan.Omega, nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
