package cluster

// In-package tests for the cluster layers: the ring's determinism and
// balance, Partition's exactly-once coverage, the shard contract
// (including its error surface), and the coordinator's merge, routing,
// fencing, and metrics machinery. The cross-package contracts — byte
// identity with a single-node backend across the Figure-2 matrix, chaos
// under shard loss — live in the root package's cluster_oracle_test.go
// and cluster_chaos_test.go; here the parts are tested against their own
// specifications, with access to unexported state (the fake clock behind
// cooldowns, the prefetch defaults) that black-box tests cannot reach.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/websim"
)

func uniformDataset(tb testing.TB, n, m int, seed int64) *data.Dataset {
	tb.Helper()
	ds, err := data.Generate(data.Uniform, n, m, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

func partitioned(tb testing.TB, ds *data.Dataset, shards int) []*ShardData {
	tb.Helper()
	parts, err := Partition(ds, shards)
	if err != nil {
		tb.Fatal(err)
	}
	return parts
}

// localCluster builds an in-process coordinator over LocalShard members.
func localCluster(tb testing.TB, ds *data.Dataset, shards int, opts Options) *Coordinator {
	tb.Helper()
	members := make([]Shard, shards)
	for i, sd := range partitioned(tb, ds, shards) {
		members[i] = NewLocalShard(sd)
	}
	c, err := New(members, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// drainSorted walks pred's full merged stream and checks it against the
// dataset's own sorted list — object ids, scores, and tie-breaks.
func drainSorted(t *testing.T, c *Coordinator, ds *data.Dataset, pred int) {
	t.Helper()
	ctx := context.Background()
	for rank := 0; rank < ds.N(); rank++ {
		obj, score, err := c.Sorted(ctx, pred, rank)
		if err != nil {
			t.Fatalf("sorted p%d rank %d: %v", pred, rank, err)
		}
		wantObj, wantScore := ds.SortedAt(pred, rank)
		if obj != wantObj || score != wantScore {
			t.Fatalf("sorted p%d rank %d: got (%d, %g), dataset says (%d, %g)",
				pred, rank, obj, score, wantObj, wantScore)
		}
	}
}

func TestRing(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("NewRing(0) accepted")
	}
	if _, err := NewRing(-3); err == nil {
		t.Error("NewRing(-3) accepted")
	}

	r1, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Shards() != 5 {
		t.Fatalf("Shards() = %d, want 5", r1.Shards())
	}
	// Ownership is a pure function of (object id, shard count): two rings
	// built independently must agree everywhere — that is what lets a
	// coordinator and a remote shard node route without coordination.
	r2, _ := NewRing(5)
	for u := 0; u < 10_000; u++ {
		o := r1.Owner(u)
		if o < 0 || o >= 5 {
			t.Fatalf("Owner(%d) = %d out of range", u, o)
		}
		if o != r2.Owner(u) {
			t.Fatalf("rings disagree on object %d: %d vs %d", u, o, r2.Owner(u))
		}
	}

	// 64 vnodes per shard keep the assignment near balanced; the exact
	// split is deterministic, the bounds document the invariant.
	const n, shards = 100_000, 4
	ring, _ := NewRing(shards)
	counts := make([]int, shards)
	for u := 0; u < n; u++ {
		counts[ring.Owner(u)]++
	}
	for s, got := range counts {
		frac := float64(got) / n
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("shard %d owns %.1f%% of objects, fair share is 25%%", s, 100*frac)
		}
	}
}

func TestPartition(t *testing.T) {
	ds := uniformDataset(t, 200, 2, 7)
	if _, err := Partition(ds, 0); err == nil {
		t.Error("Partition with 0 shards accepted")
	}

	parts := partitioned(t, ds, 3)
	ring, _ := NewRing(3)
	seen := make([]int, ds.N())
	for s, sd := range parts {
		if sd.Index != s {
			t.Errorf("shard %d reports Index %d", s, sd.Index)
		}
		if sd.GlobalN() != ds.N() || sd.M() != ds.M() {
			t.Errorf("shard %d dims %dx%d, want %dx%d", s, sd.GlobalN(), sd.M(), ds.N(), ds.M())
		}
		if sd.LocalN() != len(sd.Global) {
			t.Errorf("shard %d LocalN %d != len(Global) %d", s, sd.LocalN(), len(sd.Global))
		}
		for local, global := range sd.Global {
			seen[global]++
			if ring.Owner(global) != s {
				t.Errorf("object %d on shard %d, ring says %d", global, s, ring.Owner(global))
			}
			if local > 0 && sd.Global[local-1] >= global {
				t.Errorf("shard %d Global not ascending at local %d", s, local)
			}
			if sd.ToLocal(global) != local {
				t.Errorf("ToLocal(%d) = %d, want %d", global, sd.ToLocal(global), local)
			}
			// The local dataset is the shard's slice of the global one.
			for p := 0; p < ds.M(); p++ {
				if sd.Local.Score(local, p) != ds.Score(global, p) {
					t.Errorf("shard %d local %d p%d: score %g, dataset %g",
						s, local, p, sd.Local.Score(local, p), ds.Score(global, p))
				}
			}
		}
		if sd.ToLocal(-1) != -1 || sd.ToLocal(ds.N()) != -1 {
			t.Error("ToLocal out of range must return -1")
		}
	}
	for u, c := range seen {
		if c != 1 {
			t.Errorf("object %d owned by %d shards, want exactly 1", u, c)
		}
	}
}

func TestLocalShard(t *testing.T) {
	ds := uniformDataset(t, 90, 2, 11)
	parts := partitioned(t, ds, 2)
	sh := NewLocalShard(parts[0])
	ctx := context.Background()

	if sh.N() != ds.N() || sh.M() != ds.M() || sh.LocalN() != parts[0].LocalN() {
		t.Fatalf("dims N=%d M=%d LocalN=%d", sh.N(), sh.M(), sh.LocalN())
	}

	// The local sorted list descends, serves global ids, and a page of the
	// whole list agrees with pages of one entry for entry.
	page := make([]access.Entry, sh.LocalN()+3)
	n, err := sh.Page(ctx, 0, 0, page)
	if err != nil || n != sh.LocalN() {
		t.Fatalf("whole-list page: %d entries, %v; want %d", n, err, sh.LocalN())
	}
	page = page[:n]
	prev := 2.0
	for rank, e := range page {
		obj, score, err := sh.Sorted(ctx, 0, rank)
		if err != nil {
			t.Fatal(err)
		}
		if obj != e.Obj || score != e.Score {
			t.Fatalf("rank %d: Sorted (%d, %g) vs Page (%d, %g)", rank, obj, score, e.Obj, e.Score)
		}
		if score > prev {
			t.Fatalf("rank %d breaks descending order: %g after %g", rank, score, prev)
		}
		prev = score
		if parts[0].ToLocal(obj) < 0 {
			t.Fatalf("rank %d serves object %d the shard does not own", rank, obj)
		}
		if score != ds.Score(obj, 0) {
			t.Fatalf("rank %d: score %g, dataset %g", rank, score, ds.Score(obj, 0))
		}
	}

	if _, _, err := sh.Sorted(ctx, 0, sh.LocalN()); err == nil {
		t.Error("Sorted beyond the local list accepted")
	}
	if _, _, err := sh.Sorted(ctx, 0, -1); err == nil {
		t.Error("Sorted at negative rank accepted")
	}
	if n, err := sh.Page(ctx, 0, sh.LocalN()-1, make([]access.Entry, 2)); err != nil || n != 1 {
		t.Errorf("page over the list's end = %d, %v; want the one entry left", n, err)
	}
	if _, err := sh.Page(ctx, 0, sh.LocalN(), make([]access.Entry, 1)); err == nil {
		t.Error("Page past the local list accepted")
	}

	owned := parts[0].Global[0]
	unowned := parts[1].Global[0]
	if got, err := sh.Random(ctx, 1, owned); err != nil || got != ds.Score(owned, 1) {
		t.Errorf("Random(%d) = (%g, %v), want %g", owned, got, err, ds.Score(owned, 1))
	}
	if _, err := sh.Random(ctx, 1, unowned); err == nil {
		t.Error("Random on an un-owned object accepted")
	}

	scores, err := sh.BatchRandom(ctx, []int{0, 1}, []int{owned, owned})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] != ds.Score(owned, 0) || scores[1] != ds.Score(owned, 1) {
		t.Errorf("BatchRandom = %v", scores)
	}
	if _, err := sh.BatchRandom(ctx, []int{0}, []int{owned, owned}); err == nil {
		t.Error("BatchRandom length mismatch accepted")
	}
	if _, err := sh.BatchRandom(ctx, []int{0}, []int{unowned}); err == nil {
		t.Error("BatchRandom on an un-owned object accepted")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sh.Sorted(cancelled, 0, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Sorted under cancelled ctx: %v", err)
	}
	if _, err := sh.Page(cancelled, 0, 0, make([]access.Entry, 1)); !errors.Is(err, context.Canceled) {
		t.Errorf("Page under cancelled ctx: %v", err)
	}
	if _, err := sh.Random(cancelled, 0, owned); !errors.Is(err, context.Canceled) {
		t.Errorf("Random under cancelled ctx: %v", err)
	}
	if _, err := sh.BatchRandom(cancelled, []int{0}, []int{owned}); !errors.Is(err, context.Canceled) {
		t.Errorf("BatchRandom under cancelled ctx: %v", err)
	}
}

func TestWrapShardFacade(t *testing.T) {
	ds := uniformDataset(t, 40, 2, 3)
	parts := partitioned(t, ds, 2)
	inner := NewLocalShard(parts[0])
	wrapped := WrapShard(inner, inner.LocalN())

	if wrapped.LocalN() != inner.LocalN() {
		t.Fatalf("facade LocalN %d, inner %d", wrapped.LocalN(), inner.LocalN())
	}
	obj, score, err := wrapped.Sorted(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wObj, wScore, _ := inner.Sorted(context.Background(), 0, 0); obj != wObj || score != wScore {
		t.Fatalf("facade forwards (%d, %g), inner serves (%d, %g)", obj, score, wObj, wScore)
	}
	// The facade pages through the wrapped value, at the granularity it
	// serves — whole pages from a shard, one entry from a backend that only
	// has Sorted (a fault injector serves one per page as well) — and hides
	// the batch capability, so every probe passes a spliced wrapper.
	buf := make([]access.Entry, 5)
	if n, err := wrapped.Page(context.Background(), 0, 0, buf); err != nil || n != len(buf) {
		t.Errorf("facade over a shard paged %d entries, %v; want %d", n, err, len(buf))
	}
	entryWise := WrapShard(sortedOnly{inner}, inner.LocalN())
	if n, err := entryWise.Page(context.Background(), 0, 0, buf); err != nil || n != 1 {
		t.Errorf("facade over a Sorted-only backend paged %d entries, %v; want 1", n, err)
	}
	if _, ok := wrapped.(access.BatchBackend); ok {
		t.Error("facade leaks the batch capability past the wrapper")
	}
}

// sortedOnly hides everything of a backend but the Backend methods: a
// source the coordinator can only page entry by entry.
type sortedOnly struct{ access.Backend }

// dimShard fakes a Shard's dimension surface for New's validation.
type dimShard struct{ n, m, localN int }

func (d dimShard) N() int      { return d.n }
func (d dimShard) M() int      { return d.m }
func (d dimShard) LocalN() int { return d.localN }
func (d dimShard) Sorted(context.Context, int, int) (int, float64, error) {
	return 0, 0, errors.New("dimShard: not servable")
}
func (d dimShard) Page(context.Context, int, int, []access.Entry) (int, error) {
	return 0, errors.New("dimShard: not servable")
}
func (d dimShard) Random(context.Context, int, int) (float64, error) {
	return 0, errors.New("dimShard: not servable")
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("coordinator over zero shards accepted")
	}
	if _, err := New([]Shard{dimShard{10, 2, 5}, dimShard{10, 3, 5}}, Options{}); err == nil {
		t.Error("shards disagreeing on dimensions accepted")
	}
	if _, err := New([]Shard{dimShard{10, 2, 5}, dimShard{10, 2, 4}}, Options{}); err == nil {
		t.Error("shard slices not covering the dataset accepted")
	}

	c, err := New([]Shard{dimShard{10, 2, 10}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.prefetch != 16 {
		t.Errorf("default prefetch=%d", c.prefetch)
	}
	if c.N() != 10 || c.M() != 2 || c.Shards() != 1 {
		t.Errorf("dims N=%d M=%d Shards=%d", c.N(), c.M(), c.Shards())
	}
	if got := c.MembershipKey(); got != "e0:1" {
		t.Errorf("fresh MembershipKey %q, want e0:1", got)
	}
}

func TestCoordinatorSortedMerge(t *testing.T) {
	ds := uniformDataset(t, 150, 2, 13)
	c := localCluster(t, ds, 3, Options{})
	ctx := context.Background()

	if _, _, err := c.Sorted(ctx, -1, 0); err == nil {
		t.Error("negative predicate accepted")
	}
	if _, _, err := c.Sorted(ctx, 2, 0); err == nil {
		t.Error("predicate beyond M accepted")
	}
	if _, _, err := c.Sorted(ctx, 0, -1); err == nil {
		t.Error("negative rank accepted")
	}
	if _, _, err := c.Sorted(ctx, 0, ds.N()); err == nil {
		t.Error("rank beyond N accepted")
	}

	// The unseen bound starts at 1, never rises as the merge advances,
	// and always dominates the next entry to surface.
	bound := c.UnseenBound(0)
	if bound != 1 {
		t.Fatalf("fresh UnseenBound %g, want 1", bound)
	}
	for rank := 0; rank < ds.N(); rank++ {
		_, score, err := c.Sorted(ctx, 0, rank)
		if err != nil {
			t.Fatal(err)
		}
		if score > bound {
			t.Fatalf("rank %d scored %g above the prior bound %g", rank, score, bound)
		}
		nb := c.UnseenBound(0)
		if nb > bound {
			t.Fatalf("bound rose %g -> %g at rank %d", bound, nb, rank)
		}
		bound = nb
	}
	if bound != 0 {
		t.Errorf("bound after a full drain is %g, want 0 (every stream at eof)", bound)
	}
	drainSorted(t, c, ds, 1)

	st := c.Stats()
	if st.MergedRows != uint64(2*ds.N()) {
		t.Errorf("MergedRows %d, want %d", st.MergedRows, 2*ds.N())
	}
	// Singleflight cursors fetch every local entry exactly once per
	// predicate — a full drain bills n entries of shard traffic, no more.
	if st.FetchedEntries != uint64(2*ds.N()) {
		t.Errorf("FetchedEntries %d, want %d", st.FetchedEntries, 2*ds.N())
	}
	if st.ShardFetches == 0 || st.ShardFailures != 0 {
		t.Errorf("ShardFetches %d, ShardFailures %d", st.ShardFetches, st.ShardFailures)
	}

	// A second pass replays from the merged prefix without shard traffic.
	hits := st.MergeHits
	drainSorted(t, c, ds, 0)
	st = c.Stats()
	if st.FetchedEntries != uint64(2*ds.N()) {
		t.Errorf("replay fetched new entries: %d", st.FetchedEntries)
	}
	if st.MergeHits != hits+uint64(ds.N()) {
		t.Errorf("MergeHits %d after replay, want %d", st.MergeHits, hits+uint64(ds.N()))
	}
}

func TestCoordinatorTieBreak(t *testing.T) {
	// Every object ties on predicate 0, so the merged order is decided
	// purely by the tie-break: higher global id first, exactly as a
	// single-node sorted list orders it.
	rows := make([][]float64, 30)
	for u := range rows {
		rows[u] = []float64{0.5, float64(u) / 30}
	}
	ds, err := data.New("ties", rows)
	if err != nil {
		t.Fatal(err)
	}
	c := localCluster(t, ds, 3, Options{Prefetch: 4})
	drainSorted(t, c, ds, 0)
	drainSorted(t, c, ds, 1)
}

func TestCoordinatorEmptyShards(t *testing.T) {
	// More shards than objects: several members own nothing and must sit
	// at eof without stalling the merge.
	ds := uniformDataset(t, 5, 2, 19)
	c := localCluster(t, ds, 8, Options{})
	drainSorted(t, c, ds, 0)
	drainSorted(t, c, ds, 1)
}

func TestCoordinatorSortedConcurrent(t *testing.T) {
	ds := uniformDataset(t, 400, 1, 17)
	c := localCluster(t, ds, 3, Options{Prefetch: 8})

	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for rank := 0; rank < ds.N(); rank++ {
				obj, score, err := c.Sorted(ctx, 0, rank)
				if err != nil {
					t.Errorf("rank %d: %v", rank, err)
					return
				}
				wantObj, wantScore := ds.SortedAt(0, rank)
				if obj != wantObj || score != wantScore {
					t.Errorf("rank %d: got (%d, %g), want (%d, %g)", rank, obj, score, wantObj, wantScore)
					return
				}
			}
		}()
	}
	wg.Wait()

	// The singleflight contract under contention: however many readers
	// race the frontier, each shard entry crosses the wire once.
	if st := c.Stats(); st.FetchedEntries != uint64(ds.N()) {
		t.Errorf("%d readers fetched %d entries, want %d", readers, st.FetchedEntries, ds.N())
	}
}

func TestCoordinatorRandomAndBatch(t *testing.T) {
	ds := uniformDataset(t, 120, 2, 23)
	c := localCluster(t, ds, 3, Options{})
	ctx := context.Background()

	for u := 0; u < ds.N(); u++ {
		got, err := c.Random(ctx, 1, u)
		if err != nil {
			t.Fatalf("random obj %d: %v", u, err)
		}
		if want := ds.Score(u, 1); got != want {
			t.Fatalf("random obj %d: %g, want %g", u, got, want)
		}
	}
	if _, err := c.Random(ctx, 0, -1); err == nil {
		t.Error("negative object accepted")
	}
	if _, err := c.Random(ctx, 0, ds.N()); err == nil {
		t.Error("object beyond N accepted")
	}

	preds := make([]int, 0, 2*ds.N())
	objs := make([]int, 0, 2*ds.N())
	for u := 0; u < ds.N(); u++ {
		preds = append(preds, 0, 1)
		objs = append(objs, u, u)
	}
	scores, err := c.BatchRandom(ctx, preds, objs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range scores {
		if want := ds.Score(objs[j], preds[j]); scores[j] != want {
			t.Fatalf("batch slot %d: %g, want %g", j, scores[j], want)
		}
	}
	if _, err := c.BatchRandom(ctx, []int{0, 1}, []int{0}); err == nil {
		t.Error("batch length mismatch accepted")
	}
	if _, err := c.BatchRandom(ctx, []int{0}, []int{ds.N()}); err == nil {
		t.Error("batch with out-of-range object accepted")
	}
	empty, err := c.BatchRandom(ctx, nil, nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch: %v, %v", empty, err)
	}

	st := c.Stats()
	if st.RandomRouted != uint64(ds.N()) {
		t.Errorf("RandomRouted %d, want %d", st.RandomRouted, ds.N())
	}
	// The full-universe batch touches every shard: one group commit each.
	if st.BatchGroups != 3 {
		t.Errorf("BatchGroups %d, want 3", st.BatchGroups)
	}
}

func TestCoordinatorUnpagedShards(t *testing.T) {
	// Shards over backends that only have Sorted, behind WrapShard, serve
	// one entry per page and no batches: the coordinator's page fill reads
	// until full entry by entry, and batches go probe by probe — the paths
	// every fault-wrapped shard takes.
	ds := uniformDataset(t, 80, 2, 29)
	members := make([]Shard, 0, 3)
	for _, sd := range partitioned(t, ds, 3) {
		local := NewLocalShard(sd)
		members = append(members, WrapShard(sortedOnly{local}, local.LocalN()))
	}
	c, err := New(members, Options{Prefetch: 8})
	if err != nil {
		t.Fatal(err)
	}
	drainSorted(t, c, ds, 0)

	scores, err := c.BatchRandom(context.Background(), []int{0, 1, 0}, []int{3, 40, 77})
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{ds.Score(3, 0), ds.Score(40, 1), ds.Score(77, 0)} {
		if scores[j] != want {
			t.Errorf("batch slot %d: %g, want %g", j, scores[j], want)
		}
	}
}

// flakyShard is a LocalShard whose every access fails while the switch
// is on — the minimal failure model for exercising the fencing state
// machine deterministically.
type flakyShard struct {
	*LocalShard
	fail atomic.Bool
}

var errFlaky = errors.New("flaky: injected failure")

func (f *flakyShard) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	if f.fail.Load() {
		return 0, 0, errFlaky
	}
	return f.LocalShard.Sorted(ctx, pred, rank)
}

func (f *flakyShard) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	if f.fail.Load() {
		return 0, errFlaky
	}
	return f.LocalShard.Page(ctx, pred, from, buf)
}

func (f *flakyShard) Random(ctx context.Context, pred, obj int) (float64, error) {
	if f.fail.Load() {
		return 0, errFlaky
	}
	return f.LocalShard.Random(ctx, pred, obj)
}

func (f *flakyShard) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	if f.fail.Load() {
		return nil, errFlaky
	}
	return f.LocalShard.BatchRandom(ctx, preds, objs)
}

// expectKey asserts the membership fingerprint: epoch plus the expected
// up/down mask with the victim shard's bit cleared when down is set.
func expectKey(t *testing.T, c *Coordinator, epoch uint64, downShard int) {
	t.Helper()
	mask := []byte(strings.Repeat("1", c.Shards()))
	if downShard >= 0 {
		mask[downShard] = '0'
	}
	want := fmt.Sprintf("e%d:%s", epoch, mask)
	if got := c.MembershipKey(); got != want {
		t.Fatalf("MembershipKey %q, want %q", got, want)
	}
}

func TestCoordinatorFencing(t *testing.T) {
	ds := uniformDataset(t, 120, 2, 31)
	const victim = 1
	var flaky *flakyShard
	members := make([]Shard, 0, 3)
	for i, sd := range partitioned(t, ds, 3) {
		local := NewLocalShard(sd)
		if i == victim {
			flaky = &flakyShard{LocalShard: local}
			members = append(members, flaky)
		} else {
			members = append(members, local)
		}
	}
	// The fake clock makes cooldown expiry a statement, not a sleep.
	clock := time.Unix(0, 0)
	c, err := New(members, Options{Breaker: access.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute, Now: func() time.Time { return clock }}})
	if err != nil {
		t.Fatal(err)
	}

	ring, _ := NewRing(3)
	probe := -1
	for u := 0; u < ds.N(); u++ {
		if ring.Owner(u) == victim {
			probe = u
			break
		}
	}
	if probe < 0 {
		t.Fatal("victim shard owns no objects")
	}
	ctx := context.Background()

	if _, err := c.Random(ctx, 0, probe); err != nil {
		t.Fatalf("healthy probe: %v", err)
	}
	expectKey(t, c, 0, -1)

	// Two consecutive failures reach the threshold and fence the shard;
	// the access that fences still reports the underlying error, the next
	// one is refused up front.
	flaky.fail.Store(true)
	for i := 0; i < 2; i++ {
		_, err := c.Random(ctx, 0, probe)
		if !errors.Is(err, errFlaky) {
			t.Fatalf("failure %d: %v", i, err)
		}
		if errors.Is(err, ErrShardDown) {
			t.Fatalf("failure %d reported as a fence refusal: %v", i, err)
		}
	}
	if _, err := c.Random(ctx, 0, probe); !errors.Is(err, ErrShardDown) {
		t.Fatalf("fenced probe: %v", err)
	}
	expectKey(t, c, 1, victim)
	st := c.Stats()
	if st.ShardsUp != 2 || st.ShardFailures != 2 || st.Epoch != 1 {
		t.Fatalf("post-fence stats: up=%d failures=%d epoch=%d", st.ShardsUp, st.ShardFailures, st.Epoch)
	}

	// Every access path refuses a fenced shard: the sorted frontier needs
	// its cursor, batches need its group.
	if _, _, err := c.Sorted(ctx, 0, 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("sorted through a fenced shard: %v", err)
	}
	if _, err := c.BatchRandom(ctx, []int{0}, []int{probe}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("batch through a fenced shard: %v", err)
	}

	// A half-open probe after the cooldown that fails again restarts the
	// cooldown without another epoch bump.
	clock = clock.Add(2 * time.Minute)
	if _, err := c.Random(ctx, 0, probe); !errors.Is(err, errFlaky) {
		t.Fatalf("half-open probe: %v", err)
	}
	if _, err := c.Random(ctx, 0, probe); !errors.Is(err, ErrShardDown) {
		t.Fatalf("probe inside the restarted cooldown: %v", err)
	}
	expectKey(t, c, 1, victim)

	// Recovery: the shard heals, the next half-open probe succeeds, and
	// membership flips back with a fresh epoch so cached plans re-key.
	clock = clock.Add(2 * time.Minute)
	flaky.fail.Store(false)
	if got, err := c.Random(ctx, 0, probe); err != nil || got != ds.Score(probe, 0) {
		t.Fatalf("recovery probe: (%g, %v)", got, err)
	}
	expectKey(t, c, 2, -1)
	if st := c.Stats(); st.ShardsUp != 3 || st.Epoch != 2 {
		t.Fatalf("post-recovery stats: up=%d epoch=%d", st.ShardsUp, st.Epoch)
	}
	drainSorted(t, c, ds, 1)
}

func TestCoordinatorCancellationDoesNotFence(t *testing.T) {
	ds := uniformDataset(t, 60, 1, 37)
	c := localCluster(t, ds, 2, Options{Breaker: access.BreakerConfig{FailureThreshold: 1}})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// A caller-cancelled access says nothing about shard health: with a
	// threshold of one, any miscounted failure would fence immediately.
	if _, _, err := c.Sorted(cancelled, 0, 0); err == nil {
		t.Fatal("sorted under cancelled ctx succeeded")
	}
	if _, err := c.Random(cancelled, 0, 0); err == nil {
		t.Fatal("random under cancelled ctx succeeded")
	}
	expectKey(t, c, 0, -1)
	if st := c.Stats(); st.ShardFailures != 0 || st.ShardsUp != 2 {
		t.Fatalf("cancellation billed as failure: %+v", st)
	}
	drainSorted(t, c, ds, 0)
}

// TestCancelledProbeReleasesFence: once the cooldown has elapsed, a fenced
// shard lets one half-open probe through. A probe whose caller's context
// had ended says nothing about the shard, so it is not counted — but it
// must hand its probe slot back, or every later access to a healthy shard
// is refused with ErrShardDown for good. One row per path that probes.
func TestCancelledProbeReleasesFence(t *testing.T) {
	ds := uniformDataset(t, 90, 2, 41)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()
	const victim = 1
	for _, row := range []struct {
		name  string
		probe func(c *Coordinator, ctx context.Context, obj int) error
	}{
		{"random", func(c *Coordinator, ctx context.Context, obj int) error {
			_, err := c.Random(ctx, 0, obj)
			return err
		}},
		{"batch", func(c *Coordinator, ctx context.Context, obj int) error {
			_, err := c.BatchRandom(ctx, []int{0, 1}, []int{obj, obj})
			return err
		}},
		{"sorted", func(c *Coordinator, ctx context.Context, _ int) error {
			_, _, err := c.Sorted(ctx, 0, 0)
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			parts := partitioned(t, ds, 3)
			members := make([]Shard, len(parts))
			var flaky *flakyShard
			for i, sd := range parts {
				members[i] = NewLocalShard(sd)
				if i == victim {
					flaky = &flakyShard{LocalShard: NewLocalShard(sd)}
					members[i] = flaky
				}
			}
			clock := time.Unix(0, 0)
			c, err := New(members, Options{Breaker: access.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute, Now: func() time.Time { return clock }}})
			if err != nil {
				t.Fatal(err)
			}
			obj := parts[victim].Global[0]

			flaky.fail.Store(true)
			if err := row.probe(c, ctx, obj); err == nil {
				t.Fatal("access to the failing shard succeeded")
			}
			flaky.fail.Store(false)
			if st := c.Stats(); st.ShardsUp != 2 {
				t.Fatalf("one failure at threshold 1 left %d shards up, want 2", st.ShardsUp)
			}

			clock = clock.Add(2 * time.Minute) // the cooldown elapses: one probe may pass
			if err := row.probe(c, cancelled, obj); !errors.Is(err, context.Canceled) {
				t.Fatalf("probe under a cancelled context: %v, want context.Canceled", err)
			}
			clock = clock.Add(2 * time.Minute)
			if err := row.probe(c, ctx, obj); err != nil {
				t.Fatalf("the shard is healthy again, yet after a cancelled probe: %v", err)
			}
			if st := c.Stats(); st.ShardsUp != 3 {
				t.Errorf("after a successful probe %d shards are up, want 3", st.ShardsUp)
			}
		})
	}
}

// scrape renders reg and returns each unlabeled series' value by name.
func scrape(t *testing.T, reg *obs.Registry) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("series line %q: %v", line, err)
			}
			out[name] = v
		}
	}
	return out
}

func TestCoordinatorMetrics(t *testing.T) {
	ds := uniformDataset(t, 80, 2, 43)
	reg := obs.NewRegistry()
	c := localCluster(t, ds, 3, Options{})
	c.AttachMetrics(reg)
	ctx := context.Background()

	drainSorted(t, c, ds, 0)
	drainSorted(t, c, ds, 0) // replay: pure merge hits
	if _, err := c.Random(ctx, 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BatchRandom(ctx, []int{0, 1}, []int{10, 20}); err != nil {
		t.Fatal(err)
	}

	// The scrape reads the coordinator's own counters, name for name.
	st := c.Stats()
	if st.MergeHits == 0 || st.RandomRouted == 0 || st.BatchGroups == 0 {
		t.Fatalf("traffic left counters at zero: %+v", st)
	}
	got := scrape(t, reg)
	for name, want := range map[string]uint64{
		"topk_cluster_merged_rows_total":     st.MergedRows,
		"topk_cluster_merge_hits_total":      st.MergeHits,
		"topk_cluster_shard_fetches_total":   st.ShardFetches,
		"topk_cluster_fetched_entries_total": st.FetchedEntries,
		"topk_cluster_random_routed_total":   st.RandomRouted,
		"topk_cluster_batch_groups_total":    st.BatchGroups,
		"topk_cluster_shard_failures_total":  st.ShardFailures,
		"topk_cluster_shards_up":             3,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, stats say %d", name, got[name], want)
		}
	}

	// A second coordinator on the same registry aggregates into the scrape
	// while each Stats() stays its own.
	c2 := localCluster(t, ds, 2, Options{})
	c2.AttachMetrics(reg)
	if _, err := c2.Random(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	got = scrape(t, reg)
	if want := st.RandomRouted + 1; got["topk_cluster_random_routed_total"] != want {
		t.Errorf("two coordinators scrape %d routed probes, want %d", got["topk_cluster_random_routed_total"], want)
	}
	if got["topk_cluster_shards_up"] != 5 {
		t.Errorf("two coordinators scrape %d shards up, want 5", got["topk_cluster_shards_up"])
	}
	if c.Stats().RandomRouted != st.RandomRouted || c2.Stats().RandomRouted != 1 {
		t.Errorf("Stats() leaked across coordinators: %+v / %+v", c.Stats(), c2.Stats())
	}
}

func TestRemoteShardCluster(t *testing.T) {
	// The full remote path: each partition behind a websim shard server
	// (exactly what topkd -shard runs), dialed back as RemoteShards and
	// merged by a coordinator — the in-process cluster's wire twin.
	ds := uniformDataset(t, 80, 2, 47)
	parts := partitioned(t, ds, 2)
	ctx := context.Background()

	remotes := make([]Shard, len(parts))
	for i, sd := range parts {
		if sd.LocalN() == 0 {
			t.Fatalf("shard %d owns nothing; pick a friendlier seed", i)
		}
		srv, err := websim.NewServer(sd.Local, websim.WithShardObjects(sd.Global, ds.N()))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		rs, err := DialShard(ctx, ts.URL, ds.M(), ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		if rs.N() != ds.N() || rs.M() != ds.M() || rs.LocalN() != sd.LocalN() {
			t.Fatalf("remote shard %d meta: N=%d M=%d LocalN=%d", i, rs.N(), rs.M(), rs.LocalN())
		}
		// A probe addressed to the wrong shard 404s instead of lying.
		if _, err := rs.Random(ctx, 0, parts[1-i].Global[0]); err == nil {
			t.Errorf("remote shard %d answered a probe it does not own", i)
		}
		remotes[i] = rs
	}

	c, err := New(remotes, Options{Prefetch: 8})
	if err != nil {
		t.Fatal(err)
	}
	drainSorted(t, c, ds, 0)
	drainSorted(t, c, ds, 1)
	for _, u := range []int{0, 17, 42, 79} {
		got, err := c.Random(ctx, 1, u)
		if err != nil {
			t.Fatal(err)
		}
		if want := ds.Score(u, 1); got != want {
			t.Errorf("remote random obj %d: %g, want %g", u, got, want)
		}
	}
	scores, err := c.BatchRandom(ctx, []int{0, 1, 0}, []int{2, 33, 71})
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{ds.Score(2, 0), ds.Score(33, 1), ds.Score(71, 0)} {
		if scores[j] != want {
			t.Errorf("remote batch slot %d: %g, want %g", j, scores[j], want)
		}
	}
}
