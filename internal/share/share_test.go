package share_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	topk "repro"
	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/share"
)

// countingBackend counts the accesses that actually reach the wrapped
// backend — the quantity sharing exists to reduce.
type countingBackend struct {
	inner          access.Backend
	sorted, random atomic.Int64
}

func (b *countingBackend) N() int { return b.inner.N() }
func (b *countingBackend) M() int { return b.inner.M() }
func (b *countingBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	b.sorted.Add(1)
	return b.inner.Sorted(ctx, pred, rank)
}
func (b *countingBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	b.random.Add(1)
	return b.inner.Random(ctx, pred, obj)
}

// mutableBackend serves scores that tests can change mid-run, to prove
// invalidation refetches rather than serving stale cached values.
type mutableBackend struct {
	mu     sync.Mutex
	scores [][]float64 // [obj][pred]
}

func newMutableBackend(scores [][]float64) *mutableBackend {
	cp := make([][]float64, len(scores))
	for i, row := range scores {
		cp[i] = append([]float64(nil), row...)
	}
	return &mutableBackend{scores: cp}
}

func (b *mutableBackend) Set(obj, pred int, v float64) {
	b.mu.Lock()
	b.scores[obj][pred] = v
	b.mu.Unlock()
}

func (b *mutableBackend) N() int { return len(b.scores) }
func (b *mutableBackend) M() int { return len(b.scores[0]) }

func (b *mutableBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rank < 0 || rank >= len(b.scores) {
		return 0, 0, fmt.Errorf("rank %d out of range", rank)
	}
	order := make([]int, len(b.scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return b.scores[order[i]][pred] > b.scores[order[j]][pred]
	})
	obj := order[rank]
	return obj, b.scores[obj][pred], nil
}

func (b *mutableBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.scores[obj][pred], nil
}

// gatedBackend holds every random access until the test hands it an
// outcome on release, announcing the access on started first, so a test
// decides when — and whether — a driving probe returns.
type gatedBackend struct {
	access.DatasetBackend
	started chan struct{}
	release chan error
	random  atomic.Int64
}

func (b *gatedBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	b.random.Add(1)
	b.started <- struct{}{}
	if err := <-b.release; err != nil {
		return 0, err
	}
	return b.DatasetBackend.Random(ctx, pred, obj)
}

func e1Dataset(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := data.Generate(data.Uniform, 500, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSharedCursorStress runs N concurrent queries over one shared
// cursor and asserts the issue's bound: total backend sorted accesses
// stay within the deepest single query's depth + 1, no matter how the
// queries interleave. Run with -race.
func TestSharedCursorStress(t *testing.T) {
	ds := e1Dataset(t)
	backend := &countingBackend{inner: access.DatasetBackend{DS: ds}}
	layer := share.New(backend, share.Options{})

	const queries = 8
	deepest := 0
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for q := 0; q < queries; q++ {
		depth := 40 + 20*q // deepest query reads 180 ranks
		if depth > deepest {
			deepest = depth
		}
		wg.Add(1)
		go func(depth int) {
			defer wg.Done()
			for rank := 0; rank < depth; rank++ {
				obj, sc, err := layer.Sorted(context.Background(), 0, rank)
				if err != nil {
					errs <- err
					return
				}
				wantObj, wantSc := ds.SortedAt(0, rank)
				if obj != wantObj || sc != wantSc {
					errs <- fmt.Errorf("rank %d = (%d, %g), want (%d, %g)", rank, obj, sc, wantObj, wantSc)
					return
				}
			}
		}(depth)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := backend.sorted.Load(); got > int64(deepest)+1 {
		t.Errorf("backend sorted accesses = %d, want <= deepest depth %d + 1", got, deepest)
	}
	st := layer.Stats()
	if st.SortedHits == 0 {
		t.Error("expected shared-cursor hits across 8 overlapping queries")
	}
	if layer.Depth(0) != deepest {
		t.Errorf("cursor depth = %d, want %d", layer.Depth(0), deepest)
	}
}

// TestLedgerOracle asserts the billing contract: per-query ledgers of
// concurrent shared runs are byte-identical to unshared oracle runs of
// the same queries — sharing reduces backend accesses, never a query's
// own bill.
func TestLedgerOracle(t *testing.T) {
	ds := e1Dataset(t)
	scn := access.Uniform(2, 1, 1)
	layer := share.New(access.DatasetBackend{DS: ds}, share.Options{})

	configs := [][]float64{{0.3, 0.3}, {0.5, 0.5}, {0.7, 0.7}, {0.5, 0.9}, {0.9, 0.5}, {0.4, 0.6}, {0.6, 0.4}, {0.8, 0.8}}
	q := topk.Query{F: topk.Avg(), K: 10}

	// Oracle: each configuration alone against the raw backend.
	oracle := make([][]byte, len(configs))
	for i, h := range configs {
		eng, err := topk.NewEngine(topk.DataBackend(ds), scn)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := eng.Run(q, topk.WithNC(h, nil))
		if err != nil {
			t.Fatal(err)
		}
		oracle[i], err = json.Marshal(ans.Ledger)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Shared: all configurations concurrently through one layer.
	shared := make([][]byte, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	for i, h := range configs {
		wg.Add(1)
		go func(i int, h []float64) {
			defer wg.Done()
			eng, err := topk.NewEngine(layer, scn)
			if err != nil {
				errs[i] = err
				return
			}
			ans, err := eng.Run(q, topk.WithNC(h, nil))
			if err != nil {
				errs[i] = err
				return
			}
			shared[i], errs[i] = json.Marshal(ans.Ledger)
		}(i, h)
	}
	wg.Wait()
	for i := range configs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(oracle[i], shared[i]) {
			t.Errorf("config %v: shared ledger differs from oracle\noracle: %s\nshared: %s", configs[i], oracle[i], shared[i])
		}
	}
	st := layer.Stats()
	if st.SortedHits == 0 && st.RandomHits == 0 {
		t.Error("expected cross-query sharing across 8 overlapping runs")
	}
}

// TestBreakerInvalidation asserts that breaker transitions drop shared
// state: a score cached (or a cursor filled) before an outage is
// refetched, never served stale, once the predicate's circuit trips.
func TestBreakerInvalidation(t *testing.T) {
	backend := newMutableBackend([][]float64{
		{0.9, 0.1},
		{0.5, 0.2},
		{0.3, 0.3},
	})
	bs := access.NewBreakerSet(2, access.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute})
	layer := share.New(backend, share.Options{Breakers: bs})
	ctx := context.Background()

	// Cache a score, then change the source behind the cache's back.
	if sc, err := layer.Random(ctx, 0, 1); err != nil || sc != 0.5 {
		t.Fatalf("random(0,1) = %g, %v", sc, err)
	}
	backend.Set(1, 0, 0.7)
	if sc, _ := layer.Random(ctx, 0, 1); sc != 0.5 {
		t.Fatalf("healthy predicate should serve the cached score, got %g", sc)
	}
	// Trip the random circuit for predicate 0: the cached scores must go.
	bs.Record(access.RandomAccess, 0, false)
	if sc, err := layer.Random(ctx, 0, 1); err != nil || sc != 0.7 {
		t.Errorf("post-trip random(0,1) = %g, %v; stale cache served", sc, err)
	}

	// Same for the shared cursor: fill it, reorder the source, trip.
	if obj, _, err := layer.Sorted(ctx, 1, 0); err != nil || obj != 2 {
		t.Fatalf("sorted(1,0) = %d, %v", obj, err)
	}
	backend.Set(0, 1, 0.99) // object 0 is now the predicate-1 leader
	if obj, _, _ := layer.Sorted(ctx, 1, 0); obj != 2 {
		t.Fatalf("healthy predicate should serve the shared prefix, got obj %d", obj)
	}
	bs.Record(access.SortedAccess, 1, false)
	if obj, _, err := layer.Sorted(ctx, 1, 0); err != nil || obj != 0 {
		t.Errorf("post-trip sorted(1,0) = %d, %v; stale cursor served", obj, err)
	}
	if inv := layer.Stats().Invalidations; inv < 2 {
		t.Errorf("invalidations = %d, want >= 2", inv)
	}
	// Unaffected predicates keep their caches: predicate 1's scores were
	// never invalidated by predicate 0's random trip.
	if sc, err := layer.Random(ctx, 1, 2); err != nil || sc != 0.3 {
		t.Fatalf("random(1,2) = %g, %v", sc, err)
	}
}

// TestSortedRangeChecks: a raw caller (no session in front) handing the
// layer an out-of-range predicate or rank gets an error, as from every
// other backend — never an index panic.
func TestSortedRangeChecks(t *testing.T) {
	ds := e1Dataset(t)
	layer := share.New(access.DatasetBackend{DS: ds}, share.Options{})
	ctx := context.Background()
	for _, pred := range []int{-1, 0, ds.M()} {
		for _, rank := range []int{-1, 0, ds.N()} {
			_, _, err := layer.Sorted(ctx, pred, rank)
			if valid := pred == 0 && rank == 0; (err == nil) != valid {
				t.Errorf("Sorted(pred=%d, rank=%d): err = %v", pred, rank, err)
			}
		}
		want := 0
		if pred == 0 {
			want = 1 // the one valid access above
		}
		if got := layer.Depth(pred); got != want {
			t.Errorf("Depth(%d) = %d, want %d", pred, got, want)
		}
	}
}

// TestScoreCapacityIsExact: ScoreCapacity bounds the cached scores across
// all shards together, whatever its remainder modulo the shard count.
// Probing every key once and then again in reverse hits exactly what is
// cached: each shard's most recent keys come first and hit in place, and
// every miss after them evicts only keys the pass has already counted.
func TestScoreCapacityIsExact(t *testing.T) {
	ds := e1Dataset(t)
	for _, capacity := range []int{1, 15, 16, 100} {
		layer := share.New(access.DatasetBackend{DS: ds}, share.Options{ScoreCapacity: capacity})
		ctx := context.Background()
		for key := 0; key < ds.N()*ds.M(); key++ {
			if _, err := layer.Random(ctx, key%ds.M(), key/ds.M()); err != nil {
				t.Fatal(err)
			}
		}
		for key := ds.N()*ds.M() - 1; key >= 0; key-- {
			if _, err := layer.Random(ctx, key%ds.M(), key/ds.M()); err != nil {
				t.Fatal(err)
			}
		}
		if hits := layer.Stats().RandomHits; hits != uint64(capacity) {
			t.Errorf("ScoreCapacity %d cached %d scores", capacity, hits)
		}
	}
}

// TestProbeSingleflight drives the score cache's singleflight, the path
// every -share miss takes: identical concurrent misses make one backend
// access, a failed driver hands the access to one of its followers, and a
// follower whose context ends leaves while the driver is still blocked.
func TestProbeSingleflight(t *testing.T) {
	ds := e1Dataset(t)
	const probes = 8
	const pred, obj = 1, 7
	want := ds.Score(obj, pred)
	type result struct {
		score float64
		err   error
	}
	// start builds a fresh layer and sends one probe into it, returning
	// once that probe is blocked in the backend as the driver. Every probe
	// of the layer reports on results.
	start := func() (*share.Layer, *gatedBackend, func(context.Context), chan result) {
		b := &gatedBackend{
			DatasetBackend: access.DatasetBackend{DS: ds},
			started:        make(chan struct{}, probes),
			release:        make(chan error, probes),
		}
		l := share.New(b, share.Options{})
		results := make(chan result, probes)
		probe := func(ctx context.Context) {
			go func() {
				s, err := l.Random(ctx, pred, obj)
				results <- result{s, err}
			}()
		}
		probe(context.Background())
		<-b.started
		return l, b, probe, results
	}
	// followers sends the other probes and returns once each has missed.
	followers := func(t *testing.T, l *share.Layer, probe func(context.Context)) {
		for range probes - 1 {
			probe(context.Background())
		}
		deadline := time.Now().Add(10 * time.Second)
		for l.Stats().RandomMisses < probes {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d probes missed", l.Stats().RandomMisses, probes)
			}
			runtime.Gosched()
		}
	}

	t.Run("coalesce", func(t *testing.T) {
		l, b, probe, results := start()
		followers(t, l, probe)
		b.release <- nil
		for range probes {
			if r := <-results; r.err != nil || r.score != want {
				t.Errorf("probe = %g, %v; want %g", r.score, r.err, want)
			}
		}
		if got := b.random.Load(); got != 1 {
			t.Errorf("backend random accesses = %d, want 1", got)
		}
		if st := l.Stats(); st.Coalesced != probes-1 || st.BackendRandom != 1 {
			t.Errorf("stats = %+v, want %d coalesced and 1 backend access", st, probes-1)
		}
	})

	t.Run("failed driver", func(t *testing.T) {
		l, b, probe, results := start()
		followers(t, l, probe)
		down := errors.New("source down")
		b.release <- down // the driver's access
		b.release <- nil  // the retry one follower drives
		failed := 0
		for range probes {
			switch r := <-results; {
			case errors.Is(r.err, down):
				failed++
			case r.err != nil || r.score != want:
				t.Errorf("probe = %g, %v; want %g", r.score, r.err, want)
			}
		}
		if failed != 1 {
			t.Errorf("%d probes saw the driver's failure, want only the driver", failed)
		}
		if got := b.random.Load(); got != 2 {
			t.Errorf("backend random accesses = %d, want 2: the failed one and one retry", got)
		}
		if st := l.Stats(); st.Coalesced != probes-2 {
			t.Errorf("coalesced = %d, want %d: every follower but the new driver", st.Coalesced, probes-2)
		}
	})

	t.Run("follower leaves", func(t *testing.T) {
		_, b, probe, results := start()
		ctx, cancel := context.WithCancel(context.Background())
		probe(ctx)
		cancel()
		if r := <-results; !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled follower = %g, %v; want context.Canceled", r.score, r.err)
		}
		select {
		case r := <-results:
			t.Fatalf("the driver returned (%g, %v) before its access did", r.score, r.err)
		default:
		}
		b.release <- nil
		if r := <-results; r.err != nil || r.score != want {
			t.Errorf("driver = %g, %v; want %g", r.score, r.err, want)
		}
		if got := b.random.Load(); got != 1 {
			t.Errorf("backend random accesses = %d, want 1", got)
		}
	})
}
