package parallel

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/algo/algotest"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// newProblem opens a session over the backend and bundles the query.
func newProblem(t *testing.T, b access.Backend, scn access.Scenario, f score.Func, k int, opts ...access.Option) *algo.Problem {
	t.Helper()
	sess, err := access.NewSession(b, scn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := algo.NewProblem(f, k, sess)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// runOn executes one query under the executor, simulated or live.
func runOn(t *testing.T, live bool, b int, backend access.Backend, scn access.Scenario, f score.Func, k int, h []float64, opts ...access.Option) *Result {
	t.Helper()
	ex := &Executor{B: b, Sel: algotest.MustSRG(h, nil), Live: live}
	res, err := ex.Run(context.Background(), newProblem(t, backend, scn, f, k, opts...), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runParallel(t *testing.T, b int, ds *data.Dataset, scn access.Scenario, f score.Func, k int, h []float64) *Result {
	t.Helper()
	return runOn(t, false, b, access.DatasetBackend{DS: ds}, scn, f, k, h)
}

func assertOracle(t *testing.T, ds *data.Dataset, f score.Func, k int, items []algo.Item) {
	t.Helper()
	oracle := ds.TopK(f.Eval, k)
	if len(items) != len(oracle) {
		t.Fatalf("returned %d items, oracle %d", len(items), len(oracle))
	}
	got := make([]float64, len(items))
	for i, it := range items {
		got[i] = f.Eval(ds.Scores(it.Obj))
		if it.Exact && math.Abs(it.Score-got[i]) > 1e-9 {
			t.Fatalf("item %d reported %g, truth %g", i, it.Score, got[i])
		}
	}
	want := make([]float64, len(oracle))
	for i, r := range oracle {
		want[i] = r.Score
	}
	sort.Float64s(got)
	sort.Float64s(want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("score multiset mismatch: %v vs %v", got, want)
		}
	}
}

// TestSequentialEquivalence: B = 1 is sequential NC under either completion
// source — the same accesses in the same order (the session's trace), the
// same answers, and under simulated time elapsed == cost — in every legal
// cell of the Figure-2 matrix for min, avg and a weighted sum.
func TestSequentialEquivalence(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 200, 2, 13)
	backend := access.DatasetBackend{DS: ds}
	h := []float64{0.4, 0.6}
	caps := []access.Capability{access.Cheap, access.Expensive, access.Impossible}
	for _, sc := range caps {
		for _, rc := range caps {
			scn := access.MatrixCell(2, sc, rc, 10)
			if scn.Validate(2) != nil {
				continue // the cell with no legal access at all
			}
			for _, f := range []score.Func{score.Min(), score.Avg(), score.Weighted(0.7, 0.3)} {
				label := scn.Name + "/" + f.Name()
				seqProb := newProblem(t, backend, scn, f, 5, access.WithTrace())
				alg, _ := algo.NewNC(h, nil)
				seq, err := alg.Run(seqProb)
				if err != nil {
					t.Fatalf("%s: sequential NC: %v", label, err)
				}
				for _, live := range []bool{false, true} {
					prob := newProblem(t, backend, scn, f, 5, access.WithTrace())
					ex := &Executor{B: 1, Sel: algotest.MustSRG(h, nil), Live: live}
					res, err := ex.Run(context.Background(), prob, nil)
					if err != nil {
						t.Fatalf("%s live=%v: %v", label, live, err)
					}
					if !slices.Equal(prob.Session.Trace(), seqProb.Session.Trace()) {
						t.Errorf("%s live=%v: B=1 trace differs from sequential NC's:\n%v\n%v", label, live, prob.Session.Trace(), seqProb.Session.Trace())
					}
					if !slices.Equal(res.Items, seq.Items) {
						t.Errorf("%s live=%v: B=1 answers %v, sequential %v", label, live, res.Items, seq.Items)
					}
					if res.MaxUsed != 1 {
						t.Errorf("%s live=%v: B=1 used %d slots", label, live, res.MaxUsed)
					}
					if !live && math.Abs(res.Elapsed-res.Cost().Units()) > 1e-6 {
						t.Errorf("%s: B=1 elapsed %g != total cost %g", label, res.Elapsed, res.Cost().Units())
					}
				}
			}
		}
	}
}

func TestElapsedShrinksWithConcurrency(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 500, 3, 29)
	scn := access.Uniform(3, 1, 5)
	h := []float64{0.5, 0.5, 0.5}
	k := 10

	var prev *Result
	for _, b := range []int{1, 2, 4, 8} {
		res := runParallel(t, b, ds, scn, score.Avg(), k, h)
		assertOracle(t, ds, score.Avg(), k, res.Items)
		if res.Elapsed > res.Ledger.TotalCost.Units()+1e-6 {
			t.Errorf("B=%d: elapsed %g exceeds total cost %g", b, res.Elapsed, res.Ledger.TotalCost.Units())
		}
		if res.MaxUsed > b {
			t.Errorf("B=%d: used %d slots", b, res.MaxUsed)
		}
		if prev != nil {
			if res.Elapsed > prev.Elapsed*1.05 {
				t.Errorf("B=%d elapsed %g did not improve on %g", b, res.Elapsed, prev.Elapsed)
			}
			// Resource usage must stay near the sequential plan's: the
			// executor only services necessary tasks.
			if float64(res.Ledger.TotalCost) > 1.5*float64(prev.Ledger.TotalCost) {
				t.Errorf("B=%d cost %v blew up vs %v", b, res.Ledger.TotalCost, prev.Ledger.TotalCost)
			}
		}
		prev = res
	}
	first := runParallel(t, 1, ds, scn, score.Avg(), k, h)
	last := runParallel(t, 8, ds, scn, score.Avg(), k, h)
	if last.Elapsed >= first.Elapsed {
		t.Errorf("B=8 elapsed %g should beat B=1 elapsed %g", last.Elapsed, first.Elapsed)
	}
}

func TestParallelProbeOnlyScenario(t *testing.T) {
	ds := datatest.MustGenerate(data.AntiCorrelated, 150, 3, 31)
	scn := access.MatrixCell(3, access.Impossible, access.Expensive, 10)
	res := runParallel(t, 4, ds, scn, score.Min(), 5, []float64{0, 1, 1})
	assertOracle(t, ds, score.Min(), 5, res.Items)
	if res.MaxUsed < 2 {
		t.Errorf("probe-only scenario should overlap probes, used %d", res.MaxUsed)
	}
}

func TestParallelKLargerThanN(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 6, 2, 3)
	res := runParallel(t, 3, ds, access.Uniform(2, 1, 1), score.Avg(), 50, []float64{0.5, 0.5})
	assertOracle(t, ds, score.Avg(), 50, res.Items)
}

func TestParallelValidation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 5, 2, 1)
	prob := newProblem(t, access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 1), score.Avg(), 2)
	if _, err := (&Executor{B: 0, Sel: algotest.MustSRG([]float64{1, 1}, nil)}).Run(context.Background(), prob, nil); err == nil {
		t.Error("B=0 should fail")
	}
	if _, err := (&Executor{B: 2}).Run(context.Background(), prob, nil); err == nil {
		t.Error("nil selector should fail")
	}
}

func TestParallelDeterminism(t *testing.T) {
	ds := datatest.MustGenerate(data.Gaussian, 120, 2, 77)
	a := runParallel(t, 4, ds, access.Uniform(2, 1, 3), score.Min(), 5, []float64{0.3, 0.7})
	b := runParallel(t, 4, ds, access.Uniform(2, 1, 3), score.Min(), 5, []float64{0.3, 0.7})
	if a.Elapsed != b.Elapsed || a.Ledger.TotalCost != b.Ledger.TotalCost {
		t.Error("parallel execution must be deterministic")
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatal("items differ across identical runs")
		}
	}
}

// scripted is a completion source with a hand-written delivery order: it
// performs each access as it starts, like the simulated source, and
// completes them first-started first — except that, with swap set, a sorted
// access whose successor on the same list is also out is delivered after
// that successor: rank r+1 before rank r, on every list. It counts the
// accesses started for a task whose result it has delivered and the table
// cannot have been told yet.
type scripted struct {
	sess     *access.Session
	out      []flight
	swap     bool
	buffered map[int]bool // tasks whose result went out ahead of its predecessor
	redone   int          // accesses started for a buffered task
}

func (s *scripted) start(f flight) {
	if s.buffered[f.task] {
		s.redone++
	}
	s.sess.Perform(&f.Pending)
	s.out = append(s.out, f)
}

func (s *scripted) next(context.Context) (flight, error) {
	pick := 0
	if head := s.out[0]; s.swap && head.Kind == access.SortedAccess {
		for i, g := range s.out {
			if g.Kind == access.SortedAccess && g.Pred == head.Pred && g.Rank == head.Rank+1 {
				pick = i
			}
		}
	}
	f := s.out[pick]
	s.out = append(s.out[:pick], s.out[pick+1:]...)
	if pick > 0 {
		s.buffered[f.task] = true
	} else {
		clear(s.buffered) // the head's rank lets everything delivered ahead of it apply
	}
	return f, nil
}

// TestOutOfOrderCompletionBillsLikeInOrder: a task is busy until its result
// is applied, not until its request returns. A sorted result that comes
// back ahead of its predecessor waits in the reorder buffer having told the
// table nothing; were its task free to dispatch again it would buy the
// same information twice — the second executor used to, billing 112–235
// where the sequential plan bills 99. With rank r+1 delivered before rank r
// on every list, no task is dispatched while its result waits, and the run
// bills what in-order delivery bills. (To within the couple of accesses by
// which any two dispatch orders differ: the early result frees its slot, so
// the window refills one completion sooner than in order.)
func TestOutOfOrderCompletionBillsLikeInOrder(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 300, 2, 42)
	scn := access.Uniform(2, 1, 1)
	for _, b := range []int{2, 3, 8} {
		run := func(swap bool) (*Result, *scripted) {
			prob := newProblem(t, access.DatasetBackend{DS: ds}, scn, score.Avg(), 5)
			tab, q, err := new(algo.Scratch).Prepare(ds.N(), ds.M(), score.Avg(), true)
			if err != nil {
				t.Fatal(err)
			}
			src := &scripted{sess: prob.Session, swap: swap, buffered: map[int]bool{}}
			ex := &Executor{B: b, Sel: algotest.MustSRG([]float64{0.5, 0.5}, nil)}
			res, err := ex.run(context.Background(), prob, tab, q, src)
			if err != nil {
				t.Fatal(err)
			}
			assertOracle(t, ds, score.Avg(), 5, res.Items)
			return res, src
		}
		inOrder, _ := run(false)
		swapped, src := run(true)
		if src.redone != 0 {
			t.Errorf("B=%d: %d accesses dispatched for a task whose result sat in the reorder buffer", b, src.redone)
		}
		got, want := swapped.Ledger.TotalAccesses(), inOrder.Ledger.TotalAccesses()
		if got > want+want/50 || got < want-want/50 {
			t.Errorf("B=%d: out-of-order completion billed %d accesses, in-order %d", b, got, want)
		}
	}
}
