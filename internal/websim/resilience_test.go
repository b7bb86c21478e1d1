package websim

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/data/datatest"
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

// TestJitterDeterministic checks seeded jitter replays identically and
// stays within [backoff/2, backoff].
func TestJitterDeterministic(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		c := &retrier{backoff: 16 * time.Millisecond}
		WithJitterSeed(seed)(c)
		var out []time.Duration
		b := c.backoff
		for i := 0; i < 8; i++ {
			out = append(out, c.retrySleep(b, 0))
			b *= 2
		}
		return out
	}
	a, b := draw(7), draw(7)
	base := 16 * time.Millisecond
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identically-seeded clients: %v vs %v", i, a[i], b[i])
		}
		if a[i] < base/2 || a[i] > base {
			t.Fatalf("draw %d = %v outside [%v, %v]", i, a[i], base/2, base)
		}
		base *= 2
	}
	if c := draw(8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different seeds produced identical jitter prefixes")
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
	ts := startSource(t, ds, WithFailEvery(2), WithRetryAfter(time.Second))
	tr := obs.NewQueryTrace()
	c, err := NewClient(context.Background(), ts.Client(), []Route{{ts.URL, 0}},
		WithRetries(2, time.Millisecond), WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Issue accesses until one hits the fail-every-2 rhythm and retries.
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

// TestServerOutageWindow checks request ordinals inside the window fail
// with 503 and carry Retry-After, while the rest succeed.
func TestServerOutageWindow(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 1, 9)
	ts := startSource(t, ds, WithOutageWindow(1, 3), WithRetryAfter(2*time.Second))
	for n := 0; n < 5; n++ {
		resp, err := ts.Client().Get(ts.URL + "/meta")
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
		ts := startSource(t, ds, WithFailRate(0.5, 11))
		var codes []int
		for n := 0; n < 20; n++ {
			resp, err := ts.Client().Get(ts.URL + "/meta")
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
