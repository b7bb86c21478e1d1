package topk

// Mode-compatibility contract (DESIGN.md §10): every pair of execution
// modes either composes — the run executes and returns the exact top-k —
// or is rejected before any access is billed, and Run and Open give the
// same answer about it. The expectations below are written out by hand, not
// derived from the engine's table, so a row dropped from either side fails.

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingBackend counts the accesses that reach the data, so a rejected
// run can be shown to have billed nothing.
type countingBackend struct {
	Backend
	n atomic.Int64
}

func (c *countingBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	c.n.Add(1)
	return c.Backend.Sorted(ctx, pred, rank)
}

func (c *countingBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	c.n.Add(1)
	return c.Backend.Random(ctx, pred, obj)
}

func TestModeCompatibilityTable(t *testing.T) {
	const k = 5
	ds := exampleDataset(t)
	f := Avg()

	type feature struct {
		name   string
		label  string           // how a rejection names the mode
		opt    func() RunOption // nil: an engine-level mode
		shifts bool
		batch  bool // cannot be suspended as a cursor
	}
	features := []feature{
		{name: "TA", label: "WithAlgorithm (TA, MPro)", opt: func() RunOption { return WithAlgorithm("TA") }},
		{name: "FA", label: "WithAlgorithm (batch-only baseline)", opt: func() RunOption { return WithAlgorithm("FA") }, batch: true},
		{name: "NC", label: "WithNC", opt: func() RunOption { return WithNC([]float64{0.5, 0.5}, nil) }},
		{name: "adaptive", label: "WithAdaptive", opt: func() RunOption { return WithAdaptive(8) }},
		{name: "parallel", label: "WithParallel", opt: func() RunOption { return WithParallel(3) }, batch: true},
		{name: "live", label: "WithLive", opt: func() RunOption { return WithLive(3) }, batch: true},
		{name: "approx", label: "WithApproximation", opt: func() RunOption { return WithApproximation(1e-9) }},
		{name: "budget", label: "WithBudget", opt: func() RunOption { return WithBudget(1e6) }},
		{name: "resilience", label: "WithResilience", opt: func() RunOption {
			return WithResilience(&Resilience{Breakers: NewBreakerSet(2, BreakerConfig{}), AccessTimeout: time.Second})
		}},
		{name: "shifts", label: "WithCostShifts", shifts: true},
	}
	// The pairs that do not compose, under either entry point.
	rejected := map[string]bool{}
	for _, p := range [][2]string{
		{"TA", "NC"}, {"FA", "NC"},
		{"TA", "parallel"}, {"FA", "parallel"}, {"adaptive", "parallel"},
		{"TA", "live"}, {"FA", "live"}, {"adaptive", "live"}, {"parallel", "live"},
		{"TA", "approx"}, {"FA", "approx"}, {"adaptive", "approx"}, {"parallel", "approx"}, {"live", "approx"},
		{"FA", "adaptive"},
	} {
		rejected[p[0]+"+"+p[1]] = true
	}

	for i, a := range features {
		for _, b := range features[i:] {
			if a.name == "TA" && b.name == "FA" {
				continue // one option set twice, not a pair of modes
			}
			pair := a.name + "+" + b.name
			for _, entry := range []string{"Run", "Open"} {
				t.Run(fmt.Sprintf("%s/%s", pair, entry), func(t *testing.T) {
					backend := &countingBackend{Backend: DataBackend(ds)}
					var engOpts []EngineOption
					var opts []RunOption
					for _, ft := range []feature{a, b} {
						if ft.shifts {
							engOpts = []EngineOption{WithCostShifts(CostShift{AfterAccesses: 5, Pred: 0, RandomFactor: 2})}
						} else {
							opts = append(opts, ft.opt())
						}
					}
					eng, err := NewEngine(backend, UniformScenario(2, 1, 1), engOpts...)
					if err != nil {
						t.Fatal(err)
					}
					wantReject := rejected[pair] || entry == "Open" && (a.batch || b.batch)

					var items []Item
					if entry == "Run" {
						var ans *Answer
						if ans, err = eng.Run(Query{F: f, K: k}, opts...); err == nil {
							items = ans.Items
						}
					} else {
						var cur *Cursor
						if cur, err = eng.Open(Query{F: f, K: k}, opts...); err == nil {
							defer cur.Close()
							var page *Page
							if page, err = cur.Next(k); err == nil {
								items = page.Items
							}
						}
					}
					if wantReject {
						if err == nil {
							t.Fatal("incompatible modes were accepted")
						}
						// The one error shape, naming the two modes at odds: the
						// pair itself, or Open and whichever of them cannot suspend.
						at, odds := a.label, b.label
						if !rejected[pair] {
							at = "Engine.Open"
							if !b.batch {
								odds = a.label
							}
						}
						msg := err.Error()
						if !strings.Contains(msg, " cannot be combined with ") || !strings.Contains(msg, at) || !strings.Contains(msg, odds) {
							t.Errorf("rejection of %s and %s did not come from the mode table: %v", at, odds, err)
						}
						if n := backend.n.Load(); n != 0 {
							t.Errorf("rejected run performed %d accesses", n)
						}
						return
					}
					if err != nil {
						t.Fatalf("compatible modes failed: %v", err)
					}
					assertExactTopK(t, ds, f, k, &Answer{Items: items})
				})
			}
		}
	}
}

// TestAdaptiveOnNamedAlgorithmsIsTelemetryOnly pins the contract the two
// entry points used to disagree on: WithAdaptive on TA or MPro attaches the
// divergence monitor without changing what is billed.
func TestAdaptiveOnNamedAlgorithmsIsTelemetryOnly(t *testing.T) {
	ds := driftedDataset(t, 300, 2, 3, 6)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"TA", "MPro"} {
		plain, err := eng.Run(Query{F: Min(), K: 5}, WithAlgorithm(name))
		if err != nil {
			t.Fatal(err)
		}
		watched, err := eng.Run(Query{F: Min(), K: 5}, WithAlgorithm(name), WithAdaptive(8), WithTrace())
		if err != nil {
			t.Fatalf("%s + adaptive: %v", name, err)
		}
		if plain.Ledger.TotalCost != watched.Ledger.TotalCost || len(watched.Trace.AdaptiveReplans) != 0 {
			t.Errorf("%s: monitor changed the run: cost %v vs %v, %d re-plans",
				name, plain.Ledger.TotalCost, watched.Ledger.TotalCost, len(watched.Trace.AdaptiveReplans))
		}
	}
}

// TestExplainMatchesRunOnSharingEngine: Explain must report the plan Run
// executes — priced under the sharing layer's discounts, through the plan
// cache — and still touch no source.
func TestExplainMatchesRunOnSharingEngine(t *testing.T) {
	ds := exampleDataset(t)
	layer := NewSharedAccess(DataBackend(ds), SharingOptions{})
	eng, err := NewEngine(layer, UniformScenario(2, 1, 10), WithPlanCache(NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{F: Avg(), K: 5}
	cfg := OptimizerConfig{Grid: 6, Seed: 3}
	for i := 0; i < 4; i++ { // warm the layer until its hit rates discount the plan
		if _, err := eng.Run(q, WithOptimizer(cfg)); err != nil {
			t.Fatal(err)
		}
	}
	if s, r := eng.SharingStats().Discounts(); s == 0 && r == 0 {
		t.Fatal("sharing layer not warm: the test would not exercise the discounts")
	}
	before := eng.SharingStats()
	plan, err := eng.Explain(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after := eng.SharingStats(); after != before {
		t.Errorf("Explain touched the sources: %+v -> %+v", before, after)
	}
	ans, err := eng.Run(q, WithOptimizer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(plan.H, plan.Omega) != fmt.Sprint(ans.Plan.H, ans.Plan.Omega) {
		t.Errorf("Explain reports H=%v Omega=%v, Run executed H=%v Omega=%v", plan.H, plan.Omega, ans.Plan.H, ans.Plan.Omega)
	}
	if plan.EstimatedCost != ans.Plan.EstimatedCost {
		t.Errorf("Explain priced the plan at %v, Run at %v", plan.EstimatedCost, ans.Plan.EstimatedCost)
	}
}
