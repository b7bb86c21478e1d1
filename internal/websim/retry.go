package websim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
)

// retrier is the retry policy and the one retry loop both clients run
// their requests through: the JSON client of third-party sources and the
// frame client of shard nodes.
type retrier struct {
	retries        int
	backoff        time.Duration
	attemptTimeout time.Duration
	obs            obs.Observer // nil unless WithObserver
}

// ClientOption configures a client's retry policy.
type ClientOption func(*retrier)

// WithRetries sets how many times a failed request is retried (default 2)
// and the initial backoff between attempts (default 10ms, doubling).
func WithRetries(n int, backoff time.Duration) ClientOption {
	return func(r *retrier) { r.retries, r.backoff = n, backoff }
}

// WithAttemptTimeout bounds each individual request attempt (default 5s),
// so a source that hangs mid-request turns into a retryable failure
// instead of stalling the access until the query's own deadline. d <= 0
// disables the bound.
func WithAttemptTimeout(d time.Duration) ClientOption {
	return func(r *retrier) { r.attemptTimeout = d }
}

// WithObserver streams the client's retry storms and terminal request
// failures into an observer (a SourceRetry event per backoff sleep, a
// SourceFailure event per request given up on). The observer must be safe
// for concurrent use — live executors issue requests from many goroutines.
func WithObserver(o obs.Observer) ClientOption {
	return func(r *retrier) { r.obs = o }
}

// configure applies the options over the defaults.
func (r *retrier) configure(opts []ClientOption) {
	r.retries, r.backoff, r.attemptTimeout = 2, 10*time.Millisecond, 5*time.Second
	for _, o := range opts {
		o(r)
	}
}

// attempter is one request, attempted as often as the policy allows.
// attempt reports whether its failure is transient — a transport error,
// an attempt timeout, a server that said "overloaded" — and worth
// retrying, and the server's Retry-After hint when it sent one.
type attempter interface {
	attempt(ctx context.Context) (err error, retryable bool, retryAfter time.Duration)
}

// do runs the request until it succeeds, fails for good, or the retries
// are spent, sleeping the backoff (never less than the server's hint)
// between attempts.
func (r *retrier) do(ctx context.Context, a attempter) error {
	backoff := r.backoff
	for attempt := 0; ; attempt++ {
		err, retryable, retryAfter := a.attempt(ctx)
		if err == nil {
			return nil
		}
		if !retryable || attempt >= r.retries {
			if r.obs != nil {
				r.obs.Observe(obs.Event{Kind: obs.SourceFailure})
			}
			return err
		}
		sleep := r.retrySleep(backoff, retryAfter)
		if r.obs != nil {
			r.obs.Observe(obs.Event{Kind: obs.SourceRetry, Value: sleep.Seconds()})
		}
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			if r.obs != nil {
				r.obs.Observe(obs.Event{Kind: obs.SourceFailure})
			}
			return fmt.Errorf("websim: %w (last attempt: %v)", ctx.Err(), err)
		case <-t.C:
		}
		backoff *= 2
	}
}

// retrySleep computes the pause before the next attempt: the exponential
// backoff, but never less than the server's Retry-After hint — an
// overloaded source knows best when it will recover, and hammering it
// earlier only prolongs the outage.
func (r *retrier) retrySleep(backoff, retryAfter time.Duration) time.Duration {
	return max(backoff, retryAfter)
}
