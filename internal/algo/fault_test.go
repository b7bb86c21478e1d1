package algo

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// faultBackend wraps a DatasetBackend and fails accesses mid-query: by
// global call ordinal (transient window) or permanently on one predicate.
type faultBackend struct {
	access.Backend // a DatasetBackend, paged entry by entry through Sorted
	calls          int
	failFrom       int // fail calls with 1-based ordinal in (failFrom, failTo]
	failTo         int
	deadPred       int // -1 = none; every access on this predicate fails
}

func (b *faultBackend) failNow(pred int) bool {
	b.calls++
	if b.deadPred >= 0 && pred == b.deadPred {
		return true
	}
	return b.calls > b.failFrom && b.calls <= b.failTo
}

func (b *faultBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	if b.failNow(pred) {
		return 0, 0, errSource
	}
	return b.Backend.Sorted(ctx, pred, rank)
}

func (b *faultBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	if b.failNow(pred) {
		return 0, errSource
	}
	return b.Backend.Random(ctx, pred, obj)
}

var errSource = errors.New("transient source error")

// auditTrace cross-checks the session's access trace against its ledger:
// the trace length must equal the billed access count per predicate and
// kind, and no access may appear twice (a retried access that was billed
// twice would violate the no-double-charge invariant).
func auditTrace(t *testing.T, sess *access.Session) {
	t.Helper()
	led := sess.Ledger()
	ns := make([]int, sess.M())
	nr := make([]int, sess.M())
	sortedSeen := make(map[[2]int]bool)
	randomSeen := make(map[[2]int]bool)
	for _, rec := range sess.Trace() {
		key := [2]int{rec.Pred, rec.Obj}
		if rec.Kind == access.SortedAccess {
			ns[rec.Pred]++
			if sortedSeen[key] {
				t.Fatalf("sorted access double-charged: %v", rec)
			}
			sortedSeen[key] = true
		} else {
			nr[rec.Pred]++
			if randomSeen[key] {
				t.Fatalf("random probe double-charged: %v", rec)
			}
			randomSeen[key] = true
		}
	}
	for i := 0; i < sess.M(); i++ {
		if ns[i] != led.SortedCounts[i] || nr[i] != led.RandomCounts[i] {
			t.Fatalf("trace/ledger mismatch on p%d: trace sa=%d ra=%d, ledger sa=%d ra=%d",
				i+1, ns[i], nr[i], led.SortedCounts[i], led.RandomCounts[i])
		}
	}
}

// TestNCResumesAfterTransientFailure: a fault-tolerant NC run absorbs a
// transient mid-query failure burst, retries, and still proves the exact
// top-k — with failed accesses never billed and no access charged twice.
func TestNCResumesAfterTransientFailure(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 40, 3, 9)
	b := &faultBackend{Backend: access.DatasetBackend{DS: ds}, failFrom: 4, failTo: 6, deadPred: -1}
	sess, err := access.NewSession(b, access.Uniform(3, 1, 1),
		access.WithTrace(),
		access.WithResilience(&access.Resilience{Breakers: access.NewBreakerSet(3, access.BreakerConfig{})}))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewNC([]float64{0.5, 0.5, 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := NewProblem(score.Min(), 5, sess)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(prob)
	if err != nil {
		t.Fatalf("NC did not absorb the transient failure: %v", err)
	}
	if res.Truncated || len(res.Degraded) != 0 {
		t.Fatalf("transient failure degraded the answer: truncated=%v degraded=%v", res.Truncated, res.Degraded)
	}
	assertTopK(t, "NC/transient", ds, score.Min(), 5, res)
	for _, it := range res.Items {
		if !it.Exact {
			t.Fatalf("item %+v not exact after recovery", it)
		}
	}
	auditTrace(t, sess)
	// Every backend call is either billed (traced) or one of the two
	// absorbed failures; a hidden retry loop would break this count.
	if want := len(sess.Trace()) + 2; b.calls != want {
		t.Fatalf("backend calls = %d, want %d (successes + 2 failures)", b.calls, want)
	}
}

// TestNCDegradesOnPredicateOutage: with one predicate permanently dead,
// the breakers open, the scenario degrades, and NC returns a best-effort
// truncated answer with machine-readable reasons instead of hanging or
// erroring. Nothing is ever billed on the dead predicate.
func TestNCDegradesOnPredicateOutage(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 40, 3, 11)
	b := &faultBackend{Backend: access.DatasetBackend{DS: ds}, deadPred: 2}
	sess, err := access.NewSession(b, access.Uniform(3, 1, 1),
		access.WithTrace(),
		access.WithResilience(&access.Resilience{
			Breakers: access.NewBreakerSet(3, access.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}),
		}))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewNC([]float64{0.5, 0.5, 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := NewProblem(score.Min(), 3, sess)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(prob)
	if err != nil {
		t.Fatalf("outage must degrade, not fail: %v", err)
	}
	if !res.Truncated {
		t.Fatal("outage answer not flagged Truncated")
	}
	if len(res.Degraded) == 0 {
		t.Fatalf("no degraded reasons on outage answer")
	}
	var sawCircuit bool
	for _, r := range res.Degraded {
		if strings.HasPrefix(r, "circuit_open:") {
			sawCircuit = true
		}
	}
	if !sawCircuit {
		t.Fatalf("degraded reasons %v carry no circuit_open entry", res.Degraded)
	}
	led := sess.Ledger()
	if led.SortedCounts[2] != 0 || led.RandomCounts[2] != 0 {
		t.Fatalf("dead predicate was billed: %+v", led)
	}
	for _, it := range res.Items {
		if it.Exact {
			truth := score.Min().Eval(ds.Scores(it.Obj))
			if it.Score != truth {
				t.Fatalf("degraded answer lies: object %d reported exact %g, truth %g", it.Obj, it.Score, truth)
			}
		}
	}
	auditTrace(t, sess)
}

// TestTAAbortsCleanlyOnMidQueryFailure: without resilience a mid-query
// backend failure must surface as a clean error — no panic, the failed
// access unbilled, and the trace still equal to the ledger.
func TestTAAbortsCleanlyOnMidQueryFailure(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 30, 2, 3)
	b := &faultBackend{Backend: access.DatasetBackend{DS: ds}, failFrom: 5, failTo: 1 << 30, deadPred: -1}
	sess, err := access.NewSession(b, access.Uniform(2, 1, 1), access.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	prob, err := NewProblem(score.Min(), 3, sess)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (TA{}).Run(prob); err == nil {
		t.Fatal("TA swallowed a backend failure without resilience")
	}
	auditTrace(t, sess)
	if got := len(sess.Trace()); got != 5 {
		t.Fatalf("billed %d accesses, want the 5 successes before the failure", got)
	}
	if b.calls != 6 {
		t.Fatalf("backend calls = %d, want 6 (5 successes + the aborting failure)", b.calls)
	}
}

// TestMProAbortsCleanlyOnMidQueryFailure: same contract for the
// probe-only column's reference algorithm.
func TestMProAbortsCleanlyOnMidQueryFailure(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 30, 2, 7)
	b := &faultBackend{Backend: access.DatasetBackend{DS: ds}, failFrom: 4, failTo: 1 << 30, deadPred: -1}
	sess, err := access.NewSession(b, access.MatrixCell(2, access.Impossible, access.Cheap, 10), access.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	prob, err := NewProblem(score.Min(), 3, sess)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (MPro{}).Run(prob); err == nil {
		t.Fatal("MPro swallowed a backend failure without resilience")
	}
	auditTrace(t, sess)
	if got := len(sess.Trace()); got != 4 {
		t.Fatalf("billed %d accesses, want the 4 successes before the failure", got)
	}
	if b.calls != 5 {
		t.Fatalf("backend calls = %d, want 5 (4 successes + the aborting failure)", b.calls)
	}
}
