package websim

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/fault"
	"repro/internal/kit/kittest"
	"repro/internal/obs"
)

// TestAttemptTimeoutConvertsHang checks that a source which accepts the
// request and never answers turns into a retryable failure bounded by the
// per-attempt timeout, not a stuck access.
func TestAttemptTimeoutConvertsHang(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 1, 9)
	src, err := NewServer(ds)
	if err != nil {
		t.Fatal(err)
	}
	var hung atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hang every request after the /meta dial.
		if r.URL.Path != "/meta" {
			hung.Add(1)
			<-r.Context().Done()
			return
		}
		src.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}},
		WithRetries(1, time.Millisecond), WithAttemptTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = c.Sorted(context.Background(), 0, 0)
	if err == nil {
		t.Fatal("hanging source must fail the access")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("hang resolved in %v; attempt timeout did not bound it", d)
	}
	if hung.Load() < 2 {
		t.Fatalf("timed-out attempt must be retried, got %d attempts", hung.Load())
	}
}

// TestRetrySleepHonorsRetryAfter checks the server's hint floors the
// backoff sleep.
func TestRetrySleepHonorsRetryAfter(t *testing.T) {
	c := &retrier{backoff: time.Millisecond}
	if got := c.retrySleep(time.Millisecond, 50*time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("retrySleep = %v, want Retry-After floor of 50ms", got)
	}
	if got := c.retrySleep(80*time.Millisecond, 50*time.Millisecond); got != 80*time.Millisecond {
		t.Fatalf("retrySleep = %v, want backoff 80ms to dominate", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("2"); d != 2*time.Second {
		t.Errorf("delta-seconds: got %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("absent: got %v", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Errorf("negative: got %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("garbage: got %v", d)
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 0 || d > 30*time.Second {
		t.Errorf("HTTP-date: got %v", d)
	}
}

// TestClientWaitsForRetryAfter runs an end-to-end retry against a 503
// emitting Retry-After and checks the observed backoff respects it.
func TestClientWaitsForRetryAfter(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 1, 9)
	ts := startSource(t, ds, WithFaults(fault.PredFault{FlapPeriod: 1}, 0), WithRetryAfter(time.Second))
	tr := obs.NewQueryTrace()
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}},
		WithRetries(2, time.Millisecond), WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Issue accesses until one hits the flapping rhythm and retries.
	deadline := time.Now().Add(10 * time.Second)
	for tr.Snapshot().SourceRetries == 0 && time.Now().Before(deadline) {
		if _, _, err := c.Sorted(context.Background(), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.Snapshot()
	if s.SourceRetries == 0 {
		t.Fatal("no retry observed")
	}
	// Each retry slept at least the 1s Retry-After, not the 1ms backoff.
	if perRetry := s.BackoffSeconds / float64(s.SourceRetries); perRetry < 0.9 {
		t.Fatalf("average backoff %.3fs ignores Retry-After of 1s", perRetry)
	}
}

// TestServerOutageWindow checks access ordinals inside the window fail
// with 503 and carry Retry-After, while the rest succeed. /meta, read
// before each access, passes no gate: it is served throughout and moves
// no ordinal.
func TestServerOutageWindow(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 1, 9)
	ts := startSource(t, ds, WithFaults(fault.PredFault{OutageFrom: 1, OutageTo: 3}, 0), WithRetryAfter(2*time.Second))
	for n := 0; n < 5; n++ {
		meta, err := ts.Client().Get(ts.URL + "/meta")
		if err != nil {
			t.Fatal(err)
		}
		meta.Body.Close()
		if meta.StatusCode != http.StatusOK {
			t.Errorf("/meta before access %d: status %d, want 200", n, meta.StatusCode)
		}
		resp, err := ts.Client().Get(ts.URL + "/random?pred=0&obj=3")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		inOutage := n >= 1 && n < 3
		if inOutage {
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("request %d: status %d, want 503 during outage", n, resp.StatusCode)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "2" {
				t.Errorf("request %d: Retry-After %q, want \"2\"", n, ra)
			}
		} else if resp.StatusCode != http.StatusOK {
			t.Errorf("request %d: status %d, want 200 outside outage", n, resp.StatusCode)
		}
	}
}

// TestServerFailRateDeterministic checks seeded random failures replay
// identically across identically-configured servers.
func TestServerFailRateDeterministic(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 1, 9)
	run := func() []int {
		ts := startSource(t, ds, WithFaults(fault.PredFault{ErrorRate: 0.5}, 11))
		var codes []int
		for n := 0; n < 20; n++ {
			resp, err := ts.Client().Get(ts.URL + "/random?pred=0&obj=3")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			codes = append(codes, resp.StatusCode)
		}
		return codes
	}
	a, b := run(), run()
	var fails int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identically-seeded servers: %d vs %d", i, a[i], b[i])
		}
		if a[i] == http.StatusServiceUnavailable {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("fail rate 0.5 produced %d/%d failures", fails, len(a))
	}
}

// attemptFunc is one attempt of a request the test runs through the
// clients' retry loop itself.
type attemptFunc func(ctx context.Context) (err error, retryable bool, retryAfter time.Duration)

func (f attemptFunc) attempt(ctx context.Context) (error, bool, time.Duration) { return f(ctx) }

// TestFaultScheduleAcrossPlacements: one fault profile and one seed give
// the same pass/fail sequence, with the same retries, in each of its three
// placements — fault.Wrap in-process, the JSON server and a wire frame
// stream — behind one retry policy. A hang is cut by the attempt timeout
// and retried in all three.
func TestFaultScheduleAcrossPlacements(t *testing.T) {
	kittest.NoLeaks(t) // a hang on the wire ends when its client hangs up
	ds := datatest.MustGenerate(data.Uniform, 40, 1, 9)
	profile := fault.PredFault{ErrorRate: 0.3, SlowRate: 0.2, SlowDelay: time.Millisecond, HangRate: 0.05,
		FlapPeriod: 8, OutageFrom: 30, OutageTo: 34}
	const seed = 5
	policy := func(tr *obs.QueryTrace) []ClientOption {
		return []ClientOption{WithRetries(2, time.Millisecond), WithAttemptTimeout(250 * time.Millisecond), WithObserver(tr)}
	}
	ctx := context.Background()

	type outcome struct {
		ok      bool
		retries int
	}
	// record probes every object through a placement, noting each probe's
	// verdict and retries. A client's dial passes no gate, so the first
	// probe draws each placement's first verdict.
	record := func(tr *obs.QueryTrace, probe func(obj int) (float64, error)) []outcome {
		var out []outcome
		var seen int
		for obj := 0; obj < ds.N(); obj++ {
			got, err := probe(obj)
			if err == nil && got != ds.Score(obj, 0) {
				t.Fatalf("object %d: score %v, want %v", obj, got, ds.Score(obj, 0))
			}
			retries := tr.Snapshot().SourceRetries
			out = append(out, outcome{err == nil, retries - seen})
			seen = retries
		}
		return out
	}

	// In-process: the clients' retry loop over fault.Wrap, an injected
	// failure transient and each attempt bounded as theirs are.
	trIn := obs.NewQueryTrace()
	var loop retrier
	loop.configure(policy(trIn))
	fb := fault.Wrap(access.DatasetBackend{DS: ds}, fault.Config{Seed: seed, Preds: map[int]fault.PredFault{0: profile}})
	var hangs int
	inProcess := func(obj int) (float64, error) {
		var score float64
		err := loop.do(ctx, attemptFunc(func(ctx context.Context) (error, bool, time.Duration) {
			ctx, cancel := context.WithTimeout(ctx, loop.attemptTimeout)
			defer cancel()
			var err error
			score, err = fb.Random(ctx, 0, obj)
			if errors.Is(err, context.DeadlineExceeded) {
				hangs++
			}
			return err, errors.Is(err, fault.ErrInjected), 0
		}))
		return score, err
	}
	want := record(trIn, inProcess)

	trJSON := obs.NewQueryTrace()
	ts := startSource(t, ds, WithFaults(profile, seed))
	c, err := NewClient(ctx, ts.Client(), []Route{{ts.URL, 0}}, policy(trJSON)...)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON := record(trJSON, func(obj int) (float64, error) { return c.Random(ctx, 0, obj) })

	trWire := obs.NewQueryTrace()
	w := dialWire(t, startSource(t, ds, WithFaults(profile, seed)), 1, policy(trWire)...)
	gotWire := record(trWire, func(obj int) (float64, error) { return w.Random(ctx, 0, obj) })

	t.Logf("in-process: %v (%d hangs)", want, hangs)
	if !reflect.DeepEqual(gotJSON, want) {
		t.Errorf("JSON server:\n got  %v\n want %v", gotJSON, want)
	}
	if !reflect.DeepEqual(gotWire, want) {
		t.Errorf("wire frames:\n got  %v\n want %v", gotWire, want)
	}
	var passed, retriedPass, failed int
	for _, o := range want {
		switch {
		case !o.ok:
			failed++
		case o.retries > 0:
			retriedPass++
		default:
			passed++
		}
	}
	if passed == 0 || retriedPass == 0 || failed == 0 || hangs == 0 {
		t.Errorf("the profile drew %d passes, %d passes after retries, %d failures and %d hangs: want each", passed, retriedPass, failed, hangs)
	}
}
