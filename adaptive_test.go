package topk

// Adaptivity capstone: the planner is fed wrong statistics (uniform
// assumptions over heavily drifted data) and lying sources, and the
// engine must recover mid-query. Two contracts are under test:
//
//  1. Cost: across the Figure-2 matrix over drifted data, the adaptive
//     pipeline (divergence checkpoints + mid-query re-planning) never
//     costs more than freezing the initial plan, and somewhere in the
//     matrix it actually re-plans.
//  2. Honesty: under injected contract violations (unsorted lists, NaN,
//     duplicate ranks, inconsistent probes) a guarded engine returns the
//     exact top-k or an explicitly degraded answer — never a silently
//     wrong "exact" result.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/data"
)

// driftedDataset generates a uniform dataset and warps every score
// through s^gamma: ranked lists stay valid (warping is monotone) but
// scores pile up near zero, so the planner's uniform sample badly
// overestimates how slowly the streams descend. This is pure statistics
// drift — the access contract holds throughout.
func driftedDataset(t *testing.T, n, m int, seed int64, gamma float64) *Dataset {
	t.Helper()
	base := mustGenerateDataset(t, "uniform", n, m, seed)
	scores := make([][]float64, n)
	for u := 0; u < n; u++ {
		row := base.Scores(u)
		for i := range row {
			row[i] = math.Pow(row[i], gamma)
		}
		scores[u] = row
	}
	ds, err := data.New(fmt.Sprintf("drift(%s,g=%g)", base.Name(), gamma), scores)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestAdaptiveNeverCostsMoreThanFrozen is the cost property: on every
// Figure-2 cell over drifted data, running with WithAdaptive must not
// cost more than the frozen-plan run, both must stay exact, and the
// re-planned runs' traces must still conserve the ledger.
func TestAdaptiveNeverCostsMoreThanFrozen(t *testing.T) {
	const (
		n      = 300
		k      = 5
		period = 16
	)
	seeds := []int64{3, 11}
	gammas := []float64{4, 6}
	replans := 0
	for _, gamma := range gammas {
		for _, cell := range figure2Cells(3, 10) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("g%g/%s/seed%d", gamma, cell.name, seed), func(t *testing.T) {
					ds := driftedDataset(t, n, 3, seed, gamma)
					eng, err := NewEngine(DataBackend(ds), cell.scn)
					if err != nil {
						t.Fatal(err)
					}
					frozen, err := eng.Run(Query{F: Min(), K: k})
					if err != nil {
						t.Fatalf("frozen run: %v", err)
					}
					assertExactTopK(t, ds, Min(), k, frozen)

					adaptive, err := eng.Run(Query{F: Min(), K: k},
						WithAdaptive(period), WithTrace())
					if err != nil {
						t.Fatalf("adaptive run: %v", err)
					}
					assertExactTopK(t, ds, Min(), k, adaptive)
					checkConservation(t, "adaptive", adaptive)

					if af, ff := adaptive.TotalCost().Units(), frozen.TotalCost().Units(); af > ff+1e-9 {
						t.Errorf("adaptive cost %g exceeds frozen %g", af, ff)
					}
					replans += len(adaptive.Trace.AdaptiveReplans)
				})
			}
		}
	}
	// The property is vacuous if no checkpoint ever diverged: somewhere in
	// the matrix the drift must actually trigger a mid-query re-plan.
	if replans == 0 {
		t.Error("no adaptive run re-planned under heavy drift")
	}
}

// TestAdaptiveCursorOracle is the paged counterpart: an adaptive cursor
// over the same drifted matrix re-plans mid-page on preserved state, so
// every emitted prefix must still be the exact top-j, the trace must equal
// the ledger after every page, and — one-shot execution being the single
// full page of a cursor — a one-page adaptive cursor must be byte-identical
// (items, ledger, plan) to the adaptive Run.
func TestAdaptiveCursorOracle(t *testing.T) {
	const (
		n      = 300
		period = 16
	)
	pages := []int{2, 3, 5}
	replans := 0
	for _, gamma := range []float64{4, 6} {
		for _, cell := range figure2Cells(3, 10) {
			for _, seed := range []int64{3, 11} {
				t.Run(fmt.Sprintf("g%g/%s/seed%d", gamma, cell.name, seed), func(t *testing.T) {
					ds := driftedDataset(t, n, 3, seed, gamma)
					eng, err := NewEngine(DataBackend(ds), cell.scn)
					if err != nil {
						t.Fatal(err)
					}
					cur, err := eng.Open(Query{F: Min(), K: 5}, WithAdaptive(period), WithTrace())
					if err != nil {
						t.Fatal(err)
					}
					defer cur.Close()
					var emitted []Item
					for i, delta := range pages {
						page, err := cur.Next(delta)
						if err != nil {
							t.Fatalf("page %d: %v", i, err)
						}
						emitted = append(emitted, page.Items...)
						prefix := &Answer{Items: emitted, Ledger: page.Ledger, Trace: cur.Trace()}
						assertExactTopK(t, ds, Min(), len(emitted), prefix)
						checkConservation(t, fmt.Sprintf("page %d", i), prefix)
					}
					replans += len(cur.Trace().AdaptiveReplans)

					run, err := eng.Run(Query{F: Min(), K: 5}, WithAdaptive(period))
					if err != nil {
						t.Fatal(err)
					}
					one, err := eng.Open(Query{F: Min(), K: 5}, WithAdaptive(period))
					if err != nil {
						t.Fatal(err)
					}
					defer one.Close()
					page, err := one.Next(5)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(page.Items, run.Items) || !reflect.DeepEqual(page.Ledger, run.Ledger) || !reflect.DeepEqual(page.Plan, run.Plan) {
						t.Errorf("one-page adaptive cursor differs from adaptive Run:\n cursor %+v %+v %+v\n run    %+v %+v %+v",
							page.Items, page.Ledger, page.Plan, run.Items, run.Ledger, run.Plan)
					}
				})
			}
		}
	}
	if replans == 0 {
		t.Error("no adaptive cursor re-planned under heavy drift")
	}
}

// TestAdaptiveReplanTraceConservation pins the observability contract of
// a single known-divergent query: the trace carries the re-plan events
// (with their trigger and divergence score), the answer exposes the final
// plan, and the per-predicate counts still equal the ledger exactly even
// though the selector was swapped mid-flight.
func TestAdaptiveReplanTraceConservation(t *testing.T) {
	// Probe-expensive cell over 6x-warped data: the uniform-assumption
	// plan drains far too shallowly and burns expensive probes, so the
	// first checkpoint's divergence clears the re-plan margin decisively.
	ds := driftedDataset(t, 300, 3, 3, 6)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(3, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Min(), K: 5}, WithAdaptive(16), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	assertExactTopK(t, ds, Min(), 5, ans)
	checkConservation(t, "replanned", ans)
	if len(ans.Trace.AdaptiveReplans) == 0 {
		t.Fatal("6x drift at checkpoint period 16 must trigger a re-plan")
	}
	for _, ev := range ans.Trace.AdaptiveReplans {
		if ev.Trigger == "" || ev.Divergence <= 0 {
			t.Errorf("re-plan event missing trigger or divergence: %+v", ev)
		}
	}
	if ans.Plan == nil {
		t.Error("adaptive run should expose its (final) plan")
	}
}

// lyingSource wraps a backend with per-call rewrite hooks, modelling a
// web source that violates the access contract rather than failing.
type lyingSource struct {
	Backend
	sorted func(pred, rank, obj int, sc float64) (int, float64)
	random func(pred, obj int, sc float64) float64
}

func (l *lyingSource) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	obj, sc, err := l.Backend.Sorted(ctx, pred, rank)
	if err == nil && l.sorted != nil {
		obj, sc = l.sorted(pred, rank, obj, sc)
	}
	return obj, sc, err
}

func (l *lyingSource) Random(ctx context.Context, pred, obj int) (float64, error) {
	sc, err := l.Backend.Random(ctx, pred, obj)
	if err == nil && l.random != nil {
		sc = l.random(pred, obj, sc)
	}
	return sc, err
}

// TestContractGuardOracle drives guarded engines over lying sources
// across the Figure-2 matrix. The lies here are all detectable at first
// occurrence (order breaks, duplicate ids, NaN) — a source that lies
// consistently from its very first response, with no cross-witness, is
// indistinguishable from an honest source with different data, so only
// first-occurrence lies admit a matrix-wide oracle. The contract: every
// run returns the exact top-k or an explicitly degraded answer — never a
// silently wrong "exact" result — and wherever the guard fires, the
// violation reaches both the engine counters and the trace. Each lie must
// also actually be caught somewhere in the matrix (which cells exercise
// which capability is the plan's business, not the test's).
func TestContractGuardOracle(t *testing.T) {
	const (
		n = 60
		k = 4
	)
	type lie struct {
		name   string
		reason string
		make   func() *lyingSource
	}
	lies := []lie{
		{name: "unsorted", reason: "unsorted", make: func() *lyingSource {
			// Predicate 0's list climbs back up from rank 3 on.
			return &lyingSource{sorted: func(pred, rank, obj int, sc float64) (int, float64) {
				if pred == 0 && rank >= 3 {
					return obj, 0.99
				}
				return obj, sc
			}}
		}},
		{name: "dup", reason: "dup", make: func() *lyingSource {
			// Predicate 0 replays its top object at every rank past 2.
			var firstObj int
			var firstSc float64
			return &lyingSource{sorted: func(pred, rank, obj int, sc float64) (int, float64) {
				if pred != 0 {
					return obj, sc
				}
				if rank == 0 {
					firstObj, firstSc = obj, sc
				}
				if rank >= 3 {
					return firstObj, firstSc
				}
				return obj, sc
			}}
		}},
		{name: "nan", reason: "nan", make: func() *lyingSource {
			return &lyingSource{random: func(pred, obj int, sc float64) float64 {
				if pred == 1 {
					return math.NaN()
				}
				return sc
			}}
		}},
	}

	caught := map[string]bool{}
	for _, cell := range figure2Cells(3, 10) {
		for _, li := range lies {
			t.Run(cell.name+"/"+li.name, func(t *testing.T) {
				ds := mustGenerateDataset(t, "uniform", n, 3, 13)
				src := li.make()
				src.Backend = DataBackend(ds)
				breakers := NewBreakerSet(3, BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Millisecond})
				eng, err := NewEngine(src, cell.scn, WithContractGuard())
				if err != nil {
					t.Fatal(err)
				}
				ans, err := eng.Run(Query{F: Min(), K: k},
					WithResilience(&Resilience{Breakers: breakers}), WithTrace())
				if err != nil {
					t.Fatalf("guarded run errored (must degrade instead): %v", err)
				}
				if ans.Truncated {
					if len(ans.Degraded) == 0 {
						t.Fatal("truncated answer carries no degraded reasons")
					}
					for _, it := range ans.Items {
						if it.Exact {
							truth := Min().Eval(ds.Scores(it.Obj))
							if math.Abs(it.Score-truth) > 1e-9 {
								t.Fatalf("degraded answer lies: object %d exact %g, truth %g", it.Obj, it.Score, truth)
							}
						}
					}
				} else {
					// Undegraded answers must be the true top-k despite the lie.
					assertExactTopK(t, ds, Min(), k, ans)
				}
				if v := eng.GuardViolations(); v[li.reason] > 0 {
					caught[li.name] = true
					if len(ans.Trace.ContractViolations) == 0 {
						t.Fatal("guard fired but trace carries no contract-violation events")
					}
				}
			})
		}
	}
	for _, li := range lies {
		if !caught[li.name] {
			t.Errorf("lie %q never caught anywhere in the matrix", li.name)
		}
	}
}

// TestContractGuardInconsistentProbe pins the cross-access consistency
// check through the engine: a probe lie is only detectable once a sorted
// sighting of the same object contradicts it, and within one SR/G run a
// predicate's probed region and drained region never overlap — so the
// witness arrives on the *next* query. The guard is engine-level and its
// witness state outlives individual runs: query 1 probes predicate 1
// (recording the lies), query 2 drains predicate 1's sorted stream, which
// serves the true scores and exposes the contradiction.
func TestContractGuardInconsistentProbe(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 40, 2, 9)
	src := &lyingSource{
		Backend: DataBackend(ds),
		random: func(pred, obj int, sc float64) float64 {
			if pred == 1 {
				return sc / 2
			}
			return sc
		},
	}
	breakers := NewBreakerSet(2, BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Millisecond})
	eng, err := NewEngine(src, UniformScenario(2, 1, 1), WithContractGuard())
	if err != nil {
		t.Fatal(err)
	}
	// Query 1: drain predicate 0 only, probe predicate 1. Every probe
	// result is a lie the guard records but cannot yet refute.
	if _, err := eng.Run(Query{F: Min(), K: 3}, WithNC([]float64{0.3, 1}, nil),
		WithResilience(&Resilience{Breakers: breakers})); err != nil {
		t.Fatalf("probe-heavy run errored: %v", err)
	}
	if v := eng.GuardViolations(); v["inconsistent"] != 0 {
		t.Fatalf("a consistent probe lie must be undetectable without a witness: %v", v)
	}
	// Query 2: drain predicate 1's sorted stream. The true scores
	// contradict the recorded probe values — the guard must flag them.
	ans, err := eng.Run(Query{F: Min(), K: 3}, WithNC([]float64{0.3, 0.3}, nil),
		WithResilience(&Resilience{Breakers: breakers}), WithTrace())
	if err != nil {
		t.Fatalf("guarded run errored (must degrade instead): %v", err)
	}
	if v := eng.GuardViolations(); v["inconsistent"] == 0 {
		t.Fatalf("guard never logged the probe/sorted contradiction: %v", v)
	}
	if len(ans.Trace.ContractViolations) == 0 {
		t.Fatal("trace carries no contract-violation events")
	}
	// No exactness assertion on the answer itself: objects probed below
	// the drain depth never get a sorted witness, and their consistent
	// lies are indistinguishable from honest data — the guard's contract
	// for this class of lie is *flagged, not silent*, which the violation
	// counters and trace events above establish.
	if ans.Truncated && len(ans.Degraded) == 0 {
		t.Fatal("truncated answer carries no degraded reasons")
	}
}

// TestContractGuardHonestSourcesClean is the null hypothesis: a guarded
// engine over honest sources never reports a violation and matches the
// unguarded answer bit for bit.
func TestContractGuardHonestSourcesClean(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 80, 2, 5)
	scn := UniformScenario(2, 1, 5)
	plain, err := NewEngine(DataBackend(ds), scn)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := NewEngine(DataBackend(ds), scn, WithContractGuard())
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Run(Query{F: Avg(), K: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := guarded.Run(Query{F: Avg(), K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if v := guarded.GuardViolations(); len(v) != 0 {
		t.Fatalf("honest sources flagged: %v", v)
	}
	if a.TotalCost() != b.TotalCost() || len(a.Items) != len(b.Items) {
		t.Fatalf("guard changed an honest run: %v vs %v", a.TotalCost(), b.TotalCost())
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("item %d differs under guard: %+v vs %+v", i, a.Items[i], b.Items[i])
		}
	}
}
