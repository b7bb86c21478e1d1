package parallel

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/algo/algotest"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/kit/kittest"
	"repro/internal/score"
)

// sleepBackend adds a fixed latency to every access of an in-memory
// backend, standing in for network time deterministically.
type sleepBackend struct {
	access.Backend // a DatasetBackend, paged entry by entry through Sorted
	delay          time.Duration
}

func (b sleepBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	time.Sleep(b.delay)
	return b.Backend.Sorted(ctx, pred, rank)
}

func (b sleepBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	time.Sleep(b.delay)
	return b.Backend.Random(ctx, pred, obj)
}

// failingBackend errors on every random access.
type failingBackend struct{ access.DatasetBackend }

var errBoom = errors.New("boom")

func (b failingBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	return 0, errBoom
}

func TestLiveMatchesOracle(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 120, 2, 51)
	res := runOn(t, true, 4, access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 2), score.Min(), 5, []float64{0.5, 0.5})
	assertOracle(t, ds, score.Min(), 5, res.Items)
	if res.Cost() <= 0 {
		t.Error("live run accrued no modeled cost")
	}
	if res.Ledger.TotalAccesses() == 0 {
		t.Error("no accesses recorded")
	}
}

func TestLiveWallClockSpeedup(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 80, 2, 52)
	backend := sleepBackend{Backend: access.DatasetBackend{DS: ds}, delay: 2 * time.Millisecond}
	run := func(b int) *Result {
		res := runOn(t, true, b, backend, access.Uniform(2, 1, 1), score.Avg(), 5, []float64{0.5, 0.5})
		assertOracle(t, ds, score.Avg(), 5, res.Items)
		return res
	}
	seq := run(1)
	par := run(8)
	// With ~2ms per request, an 8-way executor should finish in well under
	// half the sequential wall time; 60% is a safe flake-proof bound.
	if par.Elapsed > seq.Elapsed*0.6 {
		t.Errorf("B=8 wall %gs did not improve enough on B=1 wall %gs", par.Elapsed, seq.Elapsed)
	}
	// Resource usage (modeled cost) stays close to sequential.
	if float64(par.Cost()) > 1.4*float64(seq.Cost()) {
		t.Errorf("B=8 cost %v vs B=1 cost %v", par.Cost(), seq.Cost())
	}
}

func TestLiveProbeScenario(t *testing.T) {
	ds := datatest.MustGenerate(data.AntiCorrelated, 90, 3, 53)
	scn := access.MatrixCell(3, access.Impossible, access.Expensive, 10)
	res := runOn(t, true, 6, access.DatasetBackend{DS: ds}, scn, score.Min(), 4, []float64{0, 1, 1})
	assertOracle(t, ds, score.Min(), 4, res.Items)
}

func TestLiveValidation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 1)
	prob := newProblem(t, access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 1), score.Min(), 2)
	sel := algotest.MustSRG([]float64{0.5, 0.5}, nil)
	if _, err := (&Executor{B: 0, Sel: sel, Live: true}).Run(context.Background(), prob, nil); err == nil {
		t.Error("B=0 should fail")
	}
	if _, err := (&Executor{B: 2, Live: true}).Run(context.Background(), prob, nil); err == nil {
		t.Error("nil selector should fail")
	}
	if _, err := (&Executor{B: 2, Sel: sel, Live: true}).Run(context.Background(), prob, nil); err != nil {
		t.Errorf("rejected runs must not consume the problem: %v", err)
	}
	if _, err := (&Executor{B: 2, Sel: sel, Live: true}).Run(context.Background(), prob, nil); err == nil {
		t.Error("a second run of one problem should fail")
	}
}

func TestLiveSurfacesBackendErrors(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 30, 2, 2)
	// Force probes by forbidding deep sorted access.
	prob := newProblem(t, failingBackend{access.DatasetBackend{DS: ds}}, access.MatrixCell(2, access.Cheap, access.Cheap, 1), score.Avg(), 3)
	ex := &Executor{B: 3, Sel: algotest.MustSRG([]float64{1, 1}, nil), Live: true}
	if _, err := ex.Run(context.Background(), prob, nil); !errors.Is(err, errBoom) {
		t.Errorf("backend error not surfaced: %v", err)
	}
}

func TestLiveKLargerThanN(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 6, 2, 3)
	res := runOn(t, true, 3, access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 1), score.Avg(), 50, []float64{0.5, 0.5})
	assertOracle(t, ds, score.Avg(), 50, res.Items)
}

func TestLiveCancellation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 200, 2, 9)
	backend := sleepBackend{Backend: access.DatasetBackend{DS: ds}, delay: 2 * time.Millisecond}
	ex := &Executor{B: 3, Sel: algotest.MustSRG([]float64{0.5, 0.5}, nil), Live: true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prob := newProblem(t, backend, access.Uniform(2, 1, 2), score.Min(), 5)
	if _, err := ex.Run(ctx, prob, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	// A short deadline mid-run aborts instead of hanging.
	ctx, cancel = context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	prob = newProblem(t, backend, access.Uniform(2, 1, 2), score.Min(), 50)
	if _, err := ex.Run(ctx, prob, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline run: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestExecutorCancellation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 100, 2, 12)
	prob := newProblem(t, access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 1), score.Min(), 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &Executor{B: 2, Sel: algotest.MustSRG([]float64{0.5, 0.5}, nil)}
	if _, err := ex.Run(ctx, prob, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled executor run: err = %v, want context.Canceled", err)
	}
}

// TestExecutorBudgetTruncates: a budget that runs dry under the executor
// answers Truncated with the best current candidates, like every other NC
// execution, under either completion source — and the bill never exceeds
// the budget, however many accesses were admitted at once.
func TestExecutorBudgetTruncates(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 300, 2, 42)
	for _, live := range []bool{false, true} {
		for _, b := range []int{1, 3, 8} {
			for _, budget := range []float64{0.5, 6, 17} {
				res := runOn(t, live, b, access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 2), score.Avg(), 5,
					[]float64{0.5, 0.5}, access.WithBudget(access.CostOf(budget)))
				label := fmt.Sprintf("live=%v B=%d budget=%g", live, b, budget)
				if !res.Truncated {
					t.Errorf("%s: answered exactly with %v billed", label, res.Cost())
				}
				if res.Cost() > access.CostOf(budget) {
					t.Errorf("%s: billed %v", label, res.Cost())
				}
				if budget >= 6 && len(res.Items) != 5 {
					t.Errorf("%s: %d best-effort items, want 5", label, len(res.Items))
				}
			}
		}
	}
}

// TestExecutorNoGoroutineLeak: every access a successful live run admits is
// awaited before it returns, so no goroutine it started outlives it.
func TestExecutorNoGoroutineLeak(t *testing.T) {
	kittest.NoLeaks(t)
	ds := datatest.MustGenerate(data.Uniform, 200, 2, 9)
	backend := sleepBackend{Backend: access.DatasetBackend{DS: ds}, delay: 200 * time.Microsecond}
	for i := 0; i < 3; i++ {
		runOn(t, true, 8, backend, access.Uniform(2, 1, 2), score.Min(), 5, []float64{0.5, 0.5})
	}
}
