package access

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/kit/kittest"
)

func testCfg(clk *kittest.Clock) BreakerConfig {
	return BreakerConfig{FailureThreshold: 3, Cooldown: time.Second, Clock: clk}
}

func TestBreakerStateMachine(t *testing.T) {
	clk := kittest.NewClock()
	b := NewBreakerSet(2, testCfg(clk))
	g0 := b.Generation()

	// Two failures stay closed; the third opens.
	for i := 0; i < 2; i++ {
		if trs := b.Record(SortedAccess, 0, false); len(trs) != 0 {
			t.Fatalf("failure %d transitioned early: %v", i+1, trs)
		}
	}
	trs := b.Record(SortedAccess, 0, false)
	if len(trs) != 1 || trs[0].From != BreakerClosed || trs[0].To != BreakerOpen {
		t.Fatalf("third failure: %v, want closed->open", trs)
	}
	if b.State(SortedAccess, 0) != BreakerOpen {
		t.Fatal("circuit not open")
	}
	if b.Generation() == g0 {
		t.Fatal("generation did not move on transition")
	}
	if b.Acquire(SortedAccess, 0) {
		t.Fatal("open circuit granted an access")
	}
	// The sibling capability is untouched.
	if b.State(RandomAccess, 0) != BreakerClosed || b.State(SortedAccess, 1) != BreakerClosed {
		t.Fatal("unrelated circuits moved")
	}

	// Cooldown not elapsed: Poll is a no-op.
	if trs := b.Poll(); len(trs) != 0 {
		t.Fatalf("premature poll transitions: %v", trs)
	}
	clk.Advance(time.Second)
	trs = b.Poll()
	if len(trs) != 1 || trs[0].To != BreakerHalfOpen {
		t.Fatalf("poll after cooldown: %v, want open->half_open", trs)
	}

	// Half-open: exactly one probe at a time.
	if !b.Acquire(SortedAccess, 0) {
		t.Fatal("half-open circuit refused the probe")
	}
	if b.Acquire(SortedAccess, 0) {
		t.Fatal("half-open circuit granted a second concurrent probe")
	}
	// Failed probe re-opens.
	trs = b.Record(SortedAccess, 0, false)
	if len(trs) != 1 || trs[0].To != BreakerOpen {
		t.Fatalf("failed probe: %v, want half_open->open", trs)
	}
	clk.Advance(time.Second)
	b.Poll()
	if !b.Acquire(SortedAccess, 0) {
		t.Fatal("second probe refused")
	}
	// Successful probe closes.
	trs = b.Record(SortedAccess, 0, true)
	if len(trs) != 1 || trs[0].To != BreakerClosed {
		t.Fatalf("successful probe: %v, want half_open->closed", trs)
	}
	// A success resets the failure streak.
	b.Record(SortedAccess, 0, false)
	b.Record(SortedAccess, 0, true)
	b.Record(SortedAccess, 0, false)
	b.Record(SortedAccess, 0, false)
	if b.State(SortedAccess, 0) != BreakerClosed {
		t.Fatal("non-consecutive failures opened the circuit")
	}
}

func TestBreakerRelease(t *testing.T) {
	clk := kittest.NewClock()
	b := NewBreakerSet(1, testCfg(clk))
	for i := 0; i < 3; i++ {
		b.Record(RandomAccess, 0, false)
	}
	clk.Advance(time.Second)
	b.Poll()
	if !b.Acquire(RandomAccess, 0) {
		t.Fatal("probe refused")
	}
	// The probe was aborted by caller-side cancellation: releasing the
	// slot (no verdict) must let the next probe through.
	b.Release(RandomAccess, 0)
	if !b.Acquire(RandomAccess, 0) {
		t.Fatal("released probe slot still occupied")
	}
}

// TestCircuitsOneProbeAtATime: however many goroutines race for a
// half-open circuit, at most one holds its probe slot at a time, and a
// released slot is taken again.
func TestCircuitsOneProbeAtATime(t *testing.T) {
	clk := kittest.NewClock()
	c := NewCircuits(1, BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, Clock: clk})
	c.Record(0, false)
	clk.Advance(time.Second)
	var inFlight, probes atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !c.Acquire(0) {
					continue
				}
				if n := inFlight.Add(1); n != 1 {
					t.Errorf("%d probes in flight on a half-open circuit", n)
				}
				probes.Add(1)
				inFlight.Add(-1)
				c.Release(0) // a cancelled probe: no verdict
			}
		}()
	}
	wg.Wait()
	if probes.Load() < 2 || c.State(0) != BreakerHalfOpen {
		t.Errorf("%d probes granted, circuit %s; want the slot taken again after each release, still half-open", probes.Load(), c.State(0))
	}
}

// flakyBackend fails accesses on the configured predicate until healed.
type flakyBackend struct {
	Backend  // a DatasetBackend, paged entry by entry through Sorted
	failPred int
	failing  bool
	calls    int
	hang     bool // block until ctx cancels instead of failing fast
}

func (b *flakyBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	b.calls++
	if b.failing && pred == b.failPred {
		if b.hang {
			<-ctx.Done()
			return 0, 0, ctx.Err()
		}
		return 0, 0, fmt.Errorf("transient source error")
	}
	return b.Backend.Sorted(ctx, pred, rank)
}

func (b *flakyBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	b.calls++
	if b.failing && pred == b.failPred {
		if b.hang {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 0, fmt.Errorf("transient source error")
	}
	return b.Backend.Random(ctx, pred, obj)
}

func testDataset(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := data.Generate(data.Uniform, 20, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDegradationAsScenarioChange is the core invariant: consecutive
// failures open the capability's circuit, which flips it off in
// CurrentScenario — an outage becomes a scenario change, not an error
// state — and nothing is ever billed for a failed access.
func TestDegradationAsScenarioChange(t *testing.T) {
	clk := kittest.NewClock()
	b := &flakyBackend{Backend: DatasetBackend{DS: testDataset(t)}, failPred: 1, failing: true}
	set := NewBreakerSet(2, testCfg(clk))
	sess, err := NewSession(b, Uniform(2, 1, 1), WithResilience(&Resilience{Breakers: set}))
	if err != nil {
		t.Fatal(err)
	}
	if !sess.FaultTolerant() {
		t.Fatal("resilient session must report FaultTolerant")
	}

	// Healthy predicate works.
	if _, _, err := sess.SortedNext(0); err != nil {
		t.Fatal(err)
	}
	costAfterOne := sess.Ledger().TotalCost

	// Three failures on p2's sorted capability open its circuit.
	for i := 0; i < 3; i++ {
		_, _, err := sess.SortedNext(1)
		if !errors.Is(err, ErrAccessFailed) {
			t.Fatalf("failure %d: err = %v, want ErrAccessFailed", i+1, err)
		}
	}
	if got := sess.Ledger(); got.TotalCost != costAfterOne || got.SortedCounts[1] != 0 {
		t.Fatalf("failed accesses were billed: %+v", got)
	}
	cur := sess.CurrentScenario()
	if cur.Preds[1].SortedOK {
		t.Fatal("open circuit did not flip SortedOK off in CurrentScenario")
	}
	if !cur.Preds[1].RandomOK || !cur.Preds[0].SortedOK {
		t.Fatal("degradation leaked onto healthy capabilities")
	}
	if _, _, err := sess.SortedNext(1); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("access on open circuit: %v, want ErrCircuitOpen", err)
	}
	deg := sess.Degraded()
	if len(deg) != 1 || deg[0] != "circuit_open:sa:p2" {
		t.Fatalf("degraded reasons = %v", deg)
	}

	// Source heals; after the cooldown the half-open probe restores the
	// capability.
	b.failing = false
	clk.Advance(time.Second)
	if !sess.CurrentScenario().Preds[1].SortedOK {
		t.Fatal("half-open circuit must re-enable the capability for its probe")
	}
	if _, _, err := sess.SortedNext(1); err != nil {
		t.Fatalf("probe access failed: %v", err)
	}
	if set.State(SortedAccess, 1) != BreakerClosed {
		t.Fatal("successful probe did not close the circuit")
	}
	if got := sess.Ledger().SortedCounts[1]; got != 1 {
		t.Fatalf("p2 sorted count = %d, want exactly 1 (no double charge)", got)
	}
}

// TestAccessTimeoutConvertsHang checks a hanging source fails the access
// within the per-access deadline while the session stays usable.
func TestAccessTimeoutConvertsHang(t *testing.T) {
	b := &flakyBackend{Backend: DatasetBackend{DS: testDataset(t)}, failPred: 0, failing: true, hang: true}
	set := NewBreakerSet(2, BreakerConfig{})
	sess, err := NewSession(b, Uniform(2, 1, 1),
		WithResilience(&Resilience{Breakers: set, AccessTimeout: 10 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, aerr := sess.SortedNext(0)
	if !errors.Is(aerr, ErrAccessFailed) {
		t.Fatalf("hang: err = %v, want ErrAccessFailed", aerr)
	}
	if time.Since(start) > time.Second {
		t.Fatal("per-access deadline did not bound the hang")
	}
	// The session context is alive; other predicates still work.
	if sess.Err() != nil {
		t.Fatalf("session context died: %v", sess.Err())
	}
	if _, _, err := sess.SortedNext(1); err != nil {
		t.Fatalf("healthy predicate failed after a hang: %v", err)
	}
}

// TestQueryCancellationStaysTerminal checks the session's own context
// failing is not absorbed as a source failure (and records no breaker
// verdict).
func TestQueryCancellationStaysTerminal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set := NewBreakerSet(2, BreakerConfig{})
	sess, err := NewSession(DatasetBackend{DS: testDataset(t)}, Uniform(2, 1, 1),
		WithContext(ctx), WithResilience(&Resilience{Breakers: set}))
	if err != nil {
		t.Fatal(err)
	}
	_, _, aerr := sess.SortedNext(0)
	if aerr == nil || errors.Is(aerr, ErrAccessFailed) {
		t.Fatalf("cancelled access: %v, want terminal (non-absorbed) error", aerr)
	}
	if set.State(SortedAccess, 0) != BreakerClosed {
		t.Fatal("cancellation must not count against the source's breaker")
	}
}

func TestResilienceValidate(t *testing.T) {
	ds := testDataset(t)
	if _, err := NewSession(DatasetBackend{DS: ds}, Uniform(2, 1, 1),
		WithResilience(&Resilience{Breakers: NewBreakerSet(1, BreakerConfig{})})); err == nil {
		t.Fatal("undersized breaker set accepted")
	}
	// Breakers are keyed by backend predicate: a run over one column still
	// needs the set to cover the backend.
	if _, err := NewSession(DatasetBackend{DS: ds}, Uniform(2, 1, 1),
		Option{Cols: []int{1}, Resilience: &Resilience{Breakers: NewBreakerSet(1, BreakerConfig{})}}); err == nil {
		t.Fatal("breaker set narrower than the backend accepted for a one-column run")
	}
	for _, cols := range [][]int{{}, {0, 5}, {-1}, {1, 1}} {
		if _, err := NewSession(DatasetBackend{DS: ds}, Uniform(2, 1, 1), Option{Cols: cols}); err == nil {
			t.Fatalf("column selection %v accepted", cols)
		}
	}
	if _, err := NewSession(DatasetBackend{DS: ds}, Uniform(2, 1, 1),
		Option{Cols: []int{1, 0}, Resilience: &Resilience{Breakers: NewBreakerSet(2, BreakerConfig{})}}); err != nil {
		t.Fatalf("valid selection rejected: %v", err)
	}
}

// TestSessionColumns pins the numbering split of a column selection: what
// the session is configured with (scenario, shifts, breakers and their
// circuit_open reasons) is in the backend's numbering, what it reports
// (arguments, ledger, CurrentScenario) in the run's.
func TestSessionColumns(t *testing.T) {
	clk := kittest.NewClock()
	ds, err := data.Generate(data.Uniform, 20, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := &flakyBackend{Backend: DatasetBackend{DS: ds}, failPred: 2, failing: true}
	scn := Scenario{Name: "cols", Preds: []PredCost{
		{Sorted: UnitCost, SortedOK: true, Random: UnitCost, RandomOK: true},
		{Sorted: 2 * UnitCost, SortedOK: true, Random: 2 * UnitCost, RandomOK: true},
		{Sorted: 3 * UnitCost, SortedOK: true, Random: 3 * UnitCost, RandomOK: true},
	}}
	set := NewBreakerSet(3, testCfg(clk))
	sess, err := NewSession(b, scn, Option{
		Cols:       []int{2, 1},
		Shifts:     []CostShift{{AfterAccesses: 0, Pred: 1, SortedFactor: 5}},
		Resilience: &Resilience{Breakers: set},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.M() != 2 {
		t.Fatalf("M = %d over two columns", sess.M())
	}
	// Column 1 is backend predicate 1: its sorted list, priced 2 and shifted
	// x5 at the first access.
	obj, s, err := sess.SortedNext(1)
	if err != nil {
		t.Fatal(err)
	}
	if wantObj, wantScore := ds.SortedAt(1, 0); obj != wantObj || s != wantScore {
		t.Fatalf("column 1 rank 0 = (%d, %v), backend predicate 1 has (%d, %v)", obj, s, wantObj, wantScore)
	}
	if got := sess.Ledger(); len(got.SortedCounts) != 2 || got.SortedCounts[1] != 1 || got.TotalCost != 10*UnitCost {
		t.Fatalf("ledger %+v, want one sorted access on column 1 at 2x5", got)
	}
	// Column 0 is failing backend predicate 2: its breaker trips, and the
	// reason names the breaker.
	for i := 0; i < 3; i++ {
		if _, _, err := sess.SortedNext(0); !errors.Is(err, ErrAccessFailed) {
			t.Fatalf("failure %d: %v", i+1, err)
		}
	}
	if set.State(SortedAccess, 2) != BreakerOpen || set.State(SortedAccess, 0) != BreakerClosed {
		t.Fatal("column 0's failures were not recorded against backend predicate 2's breaker")
	}
	if deg := sess.Degraded(); len(deg) != 1 || deg[0] != "circuit_open:sa:p3" {
		t.Fatalf("degraded reasons = %v", deg)
	}
	if cur := sess.CurrentScenario(); cur.Preds[0].SortedOK || !cur.Preds[1].SortedOK || cur.Preds[0].Random != 3*UnitCost {
		t.Fatalf("current scenario %+v: column 0 must be backend predicate 2, sorted tripped", cur.Preds)
	}
}
