package access_test

// One projection, one validation rule: access.Project must behave the same
// over every base the system stacks it on. External test package, because
// the bases import access.

import (
	"context"
	"testing"

	"repro/internal/access"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/share"
	"repro/internal/store"
)

type projectBase struct {
	name    string
	b       access.Backend
	batches bool
	// shares checks, after the projection served Sorted(0, 0) and
	// Random(1, 9) over cols {2, 0}, that it did so out of the base's own
	// state rather than a copy.
	shares func(t *testing.T)
}

func projectBases(t *testing.T, ds *data.Dataset) []projectBase {
	t.Helper()
	ctx := context.Background()

	dir := t.TempDir()
	if err := store.WriteDataset(dir, ds, store.WriterOptions{BlockEntries: 16}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	parts, err := cluster.Partition(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]cluster.Shard, len(parts))
	for i, sd := range parts {
		shards[i] = cluster.NewLocalShard(sd)
	}
	coord, err := cluster.New(shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}

	layer := share.New(access.DatasetBackend{DS: ds}, share.Options{})

	return []projectBase{
		{"memory", access.DatasetBackend{DS: ds}, false, func(*testing.T) {}},
		{"store", st, true, func(t *testing.T) {
			if got := st.Stats(); got.SortedReads != 1 || got.RandomReads != 1 {
				t.Errorf("store counters %+v: the projection's accesses are not the store's", got)
			}
		}},
		{"cluster", coord, true, func(t *testing.T) {
			if got := coord.Stats(); got.RandomRouted != 1 {
				t.Errorf("coordinator counters %+v: the projection's probe was not routed by it", got)
			}
		}},
		{"share", layer, false, func(t *testing.T) {
			// The same accesses straight through the layer are hits: the
			// projection and the layer share one cursor and one cache.
			if _, _, err := layer.Sorted(ctx, 2, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := layer.Random(ctx, 0, 9); err != nil {
				t.Fatal(err)
			}
			if got := layer.Stats(); got.SortedHits != 1 || got.BackendSorted != 1 || got.RandomHits != 1 || got.RandomMisses != 1 {
				t.Errorf("layer stats %+v: want one backend sorted access, one hit each", got)
			}
		}},
	}
}

func TestProject(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 40, 3, 11)
	ctx := context.Background()
	for _, base := range projectBases(t, ds) {
		t.Run(base.name, func(t *testing.T) {
			for name, cols := range map[string][]int{
				"empty": {}, "negative": {0, -1}, "out-of-range": {0, 3}, "duplicate": {1, 1},
			} {
				if p, err := access.Project(base.b, cols); err == nil {
					t.Errorf("%s projection %v accepted: %T", name, cols, p)
				}
			}
			if id, err := access.Project(base.b, []int{0, 1, 2}); err != nil || id != base.b {
				t.Errorf("identity projection = %T, %v; want the base itself", id, err)
			}

			p, err := access.Project(base.b, []int{2, 0})
			if err != nil {
				t.Fatal(err)
			}
			if p.N() != ds.N() || p.M() != 2 {
				t.Fatalf("projection is %dx%d, want %dx2", p.N(), p.M(), ds.N())
			}
			obj, sc, err := p.Sorted(ctx, 0, 0)
			if wantObj, wantSc := ds.SortedAt(2, 0); err != nil || obj != wantObj || sc != wantSc {
				t.Errorf("Sorted(0,0) = (%d, %g, %v), want predicate 2's (%d, %g)", obj, sc, err, wantObj, wantSc)
			}
			if sc, err := p.Random(ctx, 1, 9); err != nil || sc != ds.Score(9, 0) {
				t.Errorf("Random(1,9) = (%g, %v), want predicate 0's %g", sc, err, ds.Score(9, 0))
			}
			base.shares(t)

			for _, pred := range []int{-1, 2} {
				if _, _, err := p.Sorted(ctx, pred, 0); err == nil {
					t.Errorf("Sorted accepted predicate %d of a 2-column projection", pred)
				}
				if _, err := p.Random(ctx, pred, 0); err == nil {
					t.Errorf("Random accepted predicate %d of a 2-column projection", pred)
				}
			}

			if found, ok := access.As[access.Backend](p); !ok || found != p {
				t.Error("As[Backend] must find the projection itself")
			}
			bb, ok := p.(access.BatchBackend)
			if ok != base.batches {
				t.Fatalf("projection batches = %v, base batches = %v", ok, base.batches)
			}
			// Over a base that cannot batch the capability must be absent, not
			// emulated, so the sharing layer never batches into a probe loop.
			if share.New(p, share.Options{MaxBatch: 8}).Batching() != base.batches {
				t.Errorf("sharing layer over the projection batches = %v, want %v", !base.batches, base.batches)
			}
			if !ok {
				return
			}
			scores, err := bb.BatchRandom(ctx, []int{0, 1}, []int{7, 12})
			if err != nil || len(scores) != 2 || scores[0] != ds.Score(7, 2) || scores[1] != ds.Score(12, 0) {
				t.Errorf("BatchRandom = %v, %v; want [%g %g]", scores, err, ds.Score(7, 2), ds.Score(12, 0))
			}
			if _, err := bb.BatchRandom(ctx, []int{2}, []int{0}); err == nil {
				t.Error("BatchRandom accepted a predicate beyond the projection")
			}
		})
	}
}

// TestAsWalksUnwrap pins the discovery convention on its own: As finds a
// layer or a capability through any number of Unwrap hops, stops at a layer
// that declares none, and never looks through a nil backend.
func TestAsWalksUnwrap(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 3)
	layer := share.New(access.DatasetBackend{DS: ds}, share.Options{})
	p, err := access.Project(layer, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if found, ok := access.As[*share.Layer](p); !ok || found != layer {
		t.Errorf("As[*share.Layer] through a projection = %v, %v", found, ok)
	}
	if _, ok := access.As[access.DatasetBackend](p); !ok {
		t.Error("As does not reach the base two hops down")
	}
	if _, ok := access.As[*store.Store](p); ok {
		t.Error("As found a store in a stack that has none")
	}
	if _, ok := access.As[*share.Layer](opaque{layer}); ok {
		t.Error("As looked through a wrapper that declares no Unwrap")
	}
	if _, ok := access.As[*share.Layer](nil); ok {
		t.Error("As found a layer in a nil backend")
	}
}

// opaque forwards by embedding but declares no Unwrap.
type opaque struct{ access.Backend }
