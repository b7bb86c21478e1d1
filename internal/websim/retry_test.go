package websim

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/score"
)

func TestClientRetriesTransientFailures(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 30, 2, 9)
	// Requests fail with 503 in runs of two; retries must absorb them.
	ts := startSource(t, ds, WithFaults(fault.PredFault{FlapPeriod: 2}, 0))
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}, {ts.URL, 1}},
		WithRetries(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		if _, _, err := c.Sorted(context.Background(), 0, r); err != nil {
			t.Fatalf("rank %d failed despite retries: %v", r, err)
		}
	}
}

func TestClientGivesUpWithoutRetries(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 1, 9)
	ts := startSource(t, ds, WithFaults(fault.PredFault{OutageTo: -1}, 0)) // every access fails
	// The dial's /meta passes no gate; the first access, with zero
	// retries, must surface the failure.
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}}, WithRetries(0, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Sorted(context.Background(), 0, 0); err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("first access to an always-failing source: %v", err)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 1, 9)
	ts := startSource(t, ds)
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}}, WithRetries(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = c.Sorted(context.Background(), 0, 99) // 404: permanent
	if err == nil || !strings.Contains(err.Error(), "beyond list end") {
		t.Fatalf("err = %v", err)
	}
	// 5 retries with backoff would take >= 310ms; a permanent error must
	// return immediately.
	if time.Since(start) > 100*time.Millisecond {
		t.Error("client retried a permanent (4xx) error")
	}
}

// TestClientObserverSeesRetries checks the client's observer wiring: every
// backoff sleep emits a SourceRetry and every abandoned request a
// SourceFailure.
func TestClientObserverSeesRetries(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 30, 2, 9)
	tr := obs.NewQueryTrace()
	ts := startSource(t, ds, WithFaults(fault.PredFault{FlapPeriod: 2}, 0))
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}, {ts.URL, 1}},
		WithRetries(3, time.Millisecond), WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		if _, _, err := c.Sorted(context.Background(), 0, r); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.Snapshot()
	if s.SourceRetries == 0 {
		t.Error("a flapping source must have triggered retries")
	}
	if s.BackoffSeconds <= 0 {
		t.Error("retries must accumulate backoff time")
	}
	if s.SourceFailures != 0 {
		t.Errorf("no request was abandoned, yet %d failures observed", s.SourceFailures)
	}

	// Exhausted retries surface as a terminal failure.
	always := startSource(t, ds, WithFaults(fault.PredFault{OutageTo: -1}, 0))
	tr2 := obs.NewQueryTrace()
	c2, err := NewClient(context.Background(), always.Client(), []Route{{always.URL, 0}},
		WithRetries(1, time.Millisecond), WithObserver(tr2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Random(context.Background(), 0, 3); err == nil {
		t.Fatal("an access to an always-failing source should fail")
	}
	if s2 := tr2.Snapshot(); s2.SourceFailures != 1 || s2.SourceRetries != 1 {
		t.Errorf("terminal failure not observed: %+v", s2)
	}
}

// TestQueryOverFlakySources runs a whole query against a source that
// drops requests in runs of two: the middleware must still produce the
// oracle answer, paying only latency for the retries.
func TestQueryOverFlakySources(t *testing.T) {
	q, _, err := data.Restaurants(60, 6)
	if err != nil {
		t.Fatal(err)
	}
	ds := q.Dataset
	ts := startSource(t, ds, WithFaults(fault.PredFault{FlapPeriod: 2}, 0))
	client, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}, {ts.URL, 1}},
		WithRetries(4, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := access.NewSession(client, access.Uniform(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := algo.NewProblem(score.Min(), 4, sess)
	if err != nil {
		t.Fatal(err)
	}
	alg, _ := algo.NewNC([]float64{0.5, 0.5}, nil)
	res, err := alg.Run(prob)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ds.TopK(score.Min().Eval, 4)
	for i := range oracle {
		got := score.Min().Eval(ds.Scores(res.Items[i].Obj))
		if math.Abs(got-oracle[i].Score) > 1e-9 {
			t.Fatalf("rank %d wrong under flaky sources", i)
		}
	}
}
