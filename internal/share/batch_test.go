package share_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/share"
)

// gatedBatchBackend implements access.BatchBackend over a dataset backend
// and lets tests hold the first batch round trip open so later probes
// demonstrably queue behind it.
type gatedBatchBackend struct {
	inner   access.Backend
	batch   access.BatchBackend // nil: answer from inner.Random
	gate    chan struct{}       // when non-nil, BatchRandom waits for it
	started chan struct{}       // closed when the first BatchRandom begins
	once    sync.Once

	batches atomic.Int64
	probes  atomic.Int64
	fail    atomic.Bool // next batches fail until cleared
}

func (b *gatedBatchBackend) N() int { return b.inner.N() }
func (b *gatedBatchBackend) M() int { return b.inner.M() }
func (b *gatedBatchBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return b.inner.Sorted(ctx, pred, rank)
}
func (b *gatedBatchBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	return b.inner.Random(ctx, pred, obj)
}

func (b *gatedBatchBackend) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	b.once.Do(func() {
		if b.started != nil {
			close(b.started)
		}
	})
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	b.batches.Add(1)
	b.probes.Add(int64(len(preds)))
	if b.fail.Load() {
		return nil, errors.New("batch backend down")
	}
	scores := make([]float64, len(preds))
	for i := range preds {
		sc, err := b.inner.Random(ctx, preds[i], objs[i])
		if err != nil {
			return nil, err
		}
		scores[i] = sc
	}
	return scores, nil
}

// waitFor polls until the condition holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchCoalescing holds the first round trip open while more misses
// arrive, then asserts they were coalesced into larger batches instead of
// one round trip each.
func TestBatchCoalescing(t *testing.T) {
	ds := e1Dataset(t)
	backend := &gatedBatchBackend{
		inner:   access.DatasetBackend{DS: ds},
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	layer := share.New(backend, share.Options{MaxBatch: 8})
	if !layer.Batching() {
		t.Fatal("layer should detect the BatchBackend capability")
	}
	ctx := context.Background()

	const probes = 10
	var wg sync.WaitGroup
	scores := make([]float64, probes)
	errs := make([]error, probes)
	wg.Add(1)
	go func() {
		defer wg.Done()
		scores[0], errs[0] = layer.Random(ctx, 0, 0)
	}()
	<-backend.started // the first probe's round trip is now held open
	for i := 1; i < probes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scores[i], errs[i] = layer.Random(ctx, 0, i)
		}(i)
	}
	// All nine latecomers must be queued misses before the gate opens.
	waitFor(t, "queued misses", func() bool { return layer.Stats().RandomMisses == probes })
	close(backend.gate)
	wg.Wait()

	for i := 0; i < probes; i++ {
		if errs[i] != nil {
			t.Fatalf("probe %d: %v", i, errs[i])
		}
		if want := ds.Score(i, 0); scores[i] != want {
			t.Errorf("probe %d = %g, want %g", i, scores[i], want)
		}
	}
	// One held round trip + the 9 queued probes in ceil(9/8) = 2 batches.
	if got := backend.batches.Load(); got != 3 {
		t.Errorf("batch round trips = %d, want 3", got)
	}
	if got := backend.probes.Load(); got != probes {
		t.Errorf("batched probes = %d, want %d (each distinct probe exactly once)", got, probes)
	}
	st := layer.Stats()
	if st.Batches != 3 || st.BatchedProbes != probes || st.BackendRandom != probes {
		t.Errorf("stats = %+v, want 3 batches carrying %d probes", st, probes)
	}
	// A repeat probe is now a cache hit: no new round trip.
	if sc, err := layer.Random(ctx, 0, 5); err != nil || sc != ds.Score(5, 0) {
		t.Fatalf("cached probe = %g, %v", sc, err)
	}
	if got := backend.batches.Load(); got != 3 {
		t.Errorf("cache hit caused a round trip (batches = %d)", got)
	}
}

// TestBatchSingleflight: concurrent identical probes ride one in-flight
// batch entry instead of issuing their own.
func TestBatchSingleflight(t *testing.T) {
	ds := e1Dataset(t)
	backend := &gatedBatchBackend{
		inner:   access.DatasetBackend{DS: ds},
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	layer := share.New(backend, share.Options{MaxBatch: 8})
	ctx := context.Background()

	var wg sync.WaitGroup
	results := make([]float64, 4)
	wg.Add(1)
	go func() { defer wg.Done(); results[0], _ = layer.Random(ctx, 1, 7) }()
	<-backend.started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); results[i], _ = layer.Random(ctx, 1, 7) }(i)
	}
	waitFor(t, "coalesced joins", func() bool { return layer.Stats().Coalesced >= 3 })
	close(backend.gate)
	wg.Wait()

	want := ds.Score(7, 1)
	for i, sc := range results {
		if sc != want {
			t.Errorf("probe %d = %g, want %g", i, sc, want)
		}
	}
	if got := backend.probes.Load(); got != 1 {
		t.Errorf("backend probes = %d, want 1 (identical probes share one batch entry)", got)
	}
}

// TestBatchFailureRetry: a failed round trip propagates to its waiters,
// and a later probe retries against the recovered source.
func TestBatchFailureRetry(t *testing.T) {
	ds := e1Dataset(t)
	backend := &gatedBatchBackend{inner: access.DatasetBackend{DS: ds}}
	layer := share.New(backend, share.Options{MaxBatch: 4})
	ctx := context.Background()

	backend.fail.Store(true)
	ctxTO, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	if _, err := layer.Random(ctxTO, 0, 3); err == nil {
		t.Fatal("probe against failing source should error")
	}
	backend.fail.Store(false)
	if sc, err := layer.Random(ctx, 0, 3); err != nil || sc != ds.Score(3, 0) {
		t.Fatalf("recovered probe = %g, %v", sc, err)
	}
}
