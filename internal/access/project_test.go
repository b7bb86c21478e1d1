package access_test

// One column map, one validation rule: a session's column selection
// (Option.Cols) must behave the same over every base the system serves
// from. External test package, because the bases import access.

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
	name string
	b    access.Backend
	// shares checks, after a session over cols {2, 0} read predicate 2's
	// first entry obj and probed obj on predicate 0, that it did so out of
	// the base's own state rather than a copy.
	shares func(t *testing.T, obj int)
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
		{"memory", access.DatasetBackend{DS: ds}, func(*testing.T, int) {}},
		{"store", st, func(t *testing.T, _ int) {
			if got := st.Stats(); got.SortedReads != 1 || got.RandomReads != 1 {
				t.Errorf("store counters %+v: the session's accesses are not the store's", got)
			}
		}},
		{"cluster", coord, func(t *testing.T, _ int) {
			if got := coord.Stats(); got.RandomRouted != 1 {
				t.Errorf("coordinator counters %+v: the session's probe was not routed by it", got)
			}
		}},
		{"share", layer, func(t *testing.T, obj int) {
			// The same accesses straight through the layer are hits: the
			// session and the layer share one cursor and one cache.
			if _, _, err := layer.Sorted(ctx, 2, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := layer.Random(ctx, 0, obj); err != nil {
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
	scn := access.Uniform(3, 1, 1)
	for _, base := range projectBases(t, ds) {
		t.Run(base.name, func(t *testing.T) {
			for name, cols := range map[string][]int{
				"empty": {}, "negative": {0, -1}, "out-of-range": {0, 3}, "duplicate": {1, 1},
			} {
				if _, err := access.NewSession(base.b, scn, access.Option{Cols: cols}); err == nil {
					t.Errorf("%s selection %v accepted", name, cols)
				}
			}

			s, err := access.NewSession(base.b, scn, access.Option{Cols: []int{2, 0}})
			if err != nil {
				t.Fatal(err)
			}
			if s.N() != ds.N() || s.M() != 2 {
				t.Fatalf("session over cols {2, 0} is %dx%d, want %dx2", s.N(), s.M(), ds.N())
			}
			obj, sc, err := s.SortedNext(0)
			if wantObj, wantSc := ds.SortedAt(2, 0); err != nil || obj != wantObj || sc != wantSc {
				t.Errorf("SortedNext(0) = (%d, %g, %v), want predicate 2's (%d, %g)", obj, sc, err, wantObj, wantSc)
			}
			if sc, err := s.Random(1, obj); err != nil || sc != ds.Score(obj, 0) {
				t.Errorf("Random(1, %d) = (%g, %v), want predicate 0's %g", obj, sc, err, ds.Score(obj, 0))
			}
			base.shares(t, obj)
		})
	}
}

// TestAsWalksUnwrap pins the discovery convention on its own: As finds a
// layer or a capability through any number of Unwrap hops, stops at a layer
// that declares none, and never looks through a nil backend.
func TestAsWalksUnwrap(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 3)
	layer := share.New(access.DatasetBackend{DS: ds}, share.Options{})
	p := unwrapper{layer}
	if found, ok := access.As[*share.Layer](p); !ok || found != layer {
		t.Errorf("As[*share.Layer] through a wrapper = %v, %v", found, ok)
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

// unwrapper forwards by embedding and declares Unwrap.
type unwrapper struct{ access.Backend }

func (w unwrapper) Unwrap() access.Backend { return w.Backend }

// opaque forwards by embedding but declares no Unwrap.
type opaque struct{ access.Backend }
