package kit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errInjected = errors.New("injected fetch failure")

// at reads the one entry at rank.
func at[E any](p *Prefix[E], ctx context.Context, rank int) (E, bool, error) {
	var e [1]E
	_, hit, err := p.Read(ctx, rank, e[:])
	return e[0], hit, err
}

// TestPrefixStress races readers at random ranks over a fetcher that
// returns short pages, overshoots, fails with nothing and fails with rows
// attached. The entry at rank r is r itself, so any misplaced publish
// shows; the fetcher checks it is never run concurrently and always
// resumes where the prefix ends, and counts how often it produced each
// rank: exactly once, since rows returned with an error are kept.
func TestPrefixStress(t *testing.T) {
	const (
		readers = 8
		reads   = 400
		maxRank = 300
	)
	var (
		inFlight atomic.Int32
		produced [maxRank + 8]int // written only inside fetch: one driver at a time
		next     int
		rng      = rand.New(rand.NewSource(1))
	)
	p := NewPrefix(func(_ context.Context, from, want int, buf []int) ([]int, error) {
		if inFlight.Add(1) != 1 {
			t.Error("two fetches in flight")
		}
		defer inFlight.Add(-1)
		if from != next {
			t.Errorf("fetch resumed at %d, prefix should end at %d", from, next)
		}
		if want < from {
			t.Errorf("fetch for rank %d, already inside the prefix of %d", want, from)
		}
		mode := rng.Intn(10)
		if mode == 0 {
			return buf, errInjected
		}
		for i, n := 0, 1+rng.Intn(8); i < n; i++ {
			buf = append(buf, next)
			produced[next]++
			next++
		}
		if mode == 1 {
			return buf, errInjected
		}
		return buf, nil
	})

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < reads; i++ {
				rank := rng.Intn(maxRank)
				got, _, err := at(p, context.Background(), rank)
				if err != nil {
					if !errors.Is(err, errInjected) {
						t.Errorf("rank %d: %v", rank, err)
					}
					continue
				}
				if got != rank {
					t.Errorf("rank %d served entry %d", rank, got)
				}
			}
		}(int64(r) + 2)
	}
	wg.Wait()

	if p.Len() != next {
		t.Errorf("prefix holds %d entries, fetcher produced %d", p.Len(), next)
	}
	for rank, n := range produced {
		want := 0
		if rank < next {
			want = 1
		}
		if n != want {
			t.Errorf("rank %d fetched %d times, want %d", rank, n, want)
		}
	}
}

// gatedFetch is a one-entry fetcher that announces each call on entered
// and blocks until the test sends that call's result on release.
type gatedFetch struct {
	entered chan int // receives from
	release chan gatedResult
}

type gatedResult struct {
	entry string
	err   error
}

func newGatedFetch() *gatedFetch {
	return &gatedFetch{entered: make(chan int), release: make(chan gatedResult)}
}

func (g *gatedFetch) fetch(_ context.Context, from, _ int, buf []string) ([]string, error) {
	g.entered <- from
	r := <-g.release
	if r.err != nil {
		return buf, r.err
	}
	return append(buf, r.entry), nil
}

type atResult struct {
	entry string
	hit   bool
	err   error
}

func goAt(p *Prefix[string], ctx context.Context, rank int) <-chan atResult {
	out := make(chan atResult, 1)
	go func() {
		e, hit, err := at(p, ctx, rank)
		out <- atResult{e, hit, err}
	}()
	return out
}

// TestPrefixDropRacesFetch: a fetch begun before Drop completes after it
// and must not publish into the fresh generation — its driver starts over.
func TestPrefixDropRacesFetch(t *testing.T) {
	g := newGatedFetch()
	p := NewPrefix(g.fetch)
	driver := goAt(p, context.Background(), 0)

	<-g.entered
	p.Drop()
	g.release <- gatedResult{entry: "stale"}
	select {
	case from := <-g.entered:
		if from != 0 {
			t.Fatalf("refetch after Drop resumed at %d, want 0", from)
		}
	case r := <-driver:
		t.Fatalf("driver served %+v from the fetch begun before Drop", r)
	}
	if n := p.Len(); n != 0 {
		t.Fatalf("stale fetch published: prefix holds %d entries", n)
	}
	g.release <- gatedResult{entry: "fresh"}

	if r := <-driver; r.err != nil || r.entry != "fresh" || r.hit {
		t.Fatalf("driver got %+v, want the fresh entry as a miss", r)
	}
	if e, hit, err := at(p, context.Background(), 0); err != nil || e != "fresh" || !hit {
		t.Fatalf("replay got (%q, %v, %v), want a hit on the fresh entry", e, hit, err)
	}
}

// TestPrefixWaiters: a waiter waits under its own context, and never
// inherits the driver's error — it re-checks and drives its own fetch.
func TestPrefixWaiters(t *testing.T) {
	g := newGatedFetch()
	p := NewPrefix(g.fetch)
	driver := goAt(p, context.Background(), 0)
	<-g.entered

	// Cancelled while the driver is still fetching.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := goAt(p, ctx, 0)
	cancel()
	if r := <-cancelled; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled waiter got %+v, want context.Canceled", r)
	}

	// Still waiting when the driver fails: takes over as the next driver.
	waiter := goAt(p, context.Background(), 0)
	g.release <- gatedResult{err: errInjected}
	if r := <-driver; !errors.Is(r.err, errInjected) {
		t.Fatalf("failed driver got %+v, want its own error", r)
	}
	if from := <-g.entered; from != 0 {
		t.Fatalf("waiter's own fetch resumed at %d, want 0", from)
	}
	g.release <- gatedResult{entry: "a"}
	if r := <-waiter; r.err != nil || r.entry != "a" || r.hit {
		t.Fatalf("waiter got %+v, want entry a as its own miss", r)
	}
}

// TestPrefixKeepsRowsReturnedWithError: the coordinator's rule — rows a
// fetch paid for before failing are published, and the driver still
// reports the failure.
func TestPrefixKeepsRowsReturnedWithError(t *testing.T) {
	fail := true
	p := NewPrefix(func(_ context.Context, from, want int, buf []int) ([]int, error) {
		if fail {
			return append(buf, from, from+1), errInjected
		}
		for r := from; r <= want; r++ {
			buf = append(buf, r)
		}
		return buf, nil
	})
	if _, _, err := at(p, context.Background(), 5); !errors.Is(err, errInjected) {
		t.Fatalf("driver error = %v, want the injected failure", err)
	}
	if n := p.Len(); n != 2 {
		t.Fatalf("prefix holds %d entries after a failed fetch that returned 2", n)
	}
	if e, hit, err := at(p, context.Background(), 1); err != nil || e != 1 || !hit {
		t.Fatalf("kept row served as (%d, %v, %v), want a hit on 1", e, hit, err)
	}
	fail = false
	if e, hit, err := at(p, context.Background(), 5); err != nil || e != 5 || hit {
		t.Fatalf("retry served (%d, %v, %v), want 5 as a miss", e, hit, err)
	}
}

// TestPrefixReadCopiesWhatItHolds: a read copies as much of the prefix as
// fits from its rank on, and a read at the frontier asks the fetcher for
// that rank alone.
func TestPrefixReadCopiesWhatItHolds(t *testing.T) {
	var asked []int
	p := NewPrefix(func(_ context.Context, from, want int, buf []int) ([]int, error) {
		asked = append(asked, from, want)
		for r := from; r <= want; r++ {
			buf = append(buf, r)
		}
		return buf, nil
	})
	ctx := context.Background()
	buf := make([]int, 4)
	if n, hit, err := p.Read(ctx, 0, buf); err != nil || n != 1 || hit || buf[0] != 0 {
		t.Fatalf("read at the empty frontier = %d %v %v %v, want one missed entry", n, hit, err, buf[:n])
	}
	if n, hit, err := p.Read(ctx, 5, buf); err != nil || n != 1 || hit || buf[0] != 5 {
		t.Fatalf("read past the frontier = %d %v %v %v, want entry 5 alone", n, hit, err, buf[:n])
	}
	if n, hit, err := p.Read(ctx, 1, buf); err != nil || n != 4 || !hit || buf[0] != 1 || buf[3] != 4 {
		t.Fatalf("read inside the prefix = %d %v %v %v, want ranks 1..4 as hits", n, hit, err, buf[:n])
	}
	if n, _, _ := p.Read(ctx, 4, buf); n != 2 {
		t.Fatalf("read of the prefix's tail copied %d entries, want 2", n)
	}
	if want := []int{0, 0, 1, 5}; fmt.Sprint(asked) != fmt.Sprint(want) {
		t.Errorf("fetches asked (from, want) = %v, want %v", asked, want)
	}
}

// TestPrefixDriverReadsOne: two readers at the frontier of a slow fetcher
// whose pages stop short of the rank asked, one reader walking the list and
// one skipping a rank after every read, so it drives fetches past the
// frontier. A reader that drove a fetch gets only the entry at its rank,
// whoever published the entries after it — so counting each read once, as
// a hit or a miss, and each further entry consumed as a hit, counts no more
// misses than fetches and one count per entry consumed.
func TestPrefixDriverReadsOne(t *testing.T) {
	const ranks = 400
	var fetches atomic.Int64
	p := NewPrefix(func(_ context.Context, from, _ int, buf []int) ([]int, error) {
		fetches.Add(1)
		time.Sleep(20 * time.Microsecond)
		for r := from; r <= from+from%3; r++ {
			buf = append(buf, r)
		}
		return buf, nil
	})
	var hits, misses, consumed atomic.Int64
	var wg sync.WaitGroup
	for skip := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int, 8)
			for rank := 0; rank < ranks; rank += skip {
				n, hit, err := p.Read(context.Background(), rank, buf)
				if err != nil {
					t.Error(err)
					return
				}
				if !hit && n != 1 {
					t.Errorf("the driver of the fetch for rank %d got %d entries, want 1", rank, n)
				}
				for i, e := range buf[:n] {
					if e != rank+i {
						t.Errorf("rank %d served entry %d", rank+i, e)
					}
				}
				if hit {
					hits.Add(1)
				} else {
					misses.Add(1)
				}
				hits.Add(int64(n - 1))
				consumed.Add(int64(n))
				rank += n
			}
		}()
	}
	wg.Wait()
	if misses.Load() > fetches.Load() {
		t.Errorf("%d misses over %d fetches", misses.Load(), fetches.Load())
	}
	if got := hits.Load() + misses.Load(); got != consumed.Load() {
		t.Errorf("hits + misses = %d, entries consumed = %d", got, consumed.Load())
	}
}

// TestPrefixFetchWithoutProgress: a fetcher that breaks its contract is
// an error, not a spin.
func TestPrefixFetchWithoutProgress(t *testing.T) {
	p := NewPrefix(func(_ context.Context, _, _ int, buf []int) ([]int, error) { return buf, nil })
	if _, _, err := at(p, context.Background(), 0); err == nil {
		t.Fatal("a fetch that returned nothing was accepted")
	}
}
