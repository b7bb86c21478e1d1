package topk

// The Page contract (DESIGN.md §4) held to every layer of the backend stack
// at once: one table of layers, one set of reads, one set of checks.

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/access"
	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/share"
	"repro/internal/store"
	"repro/internal/websim"
)

// tiedDataset is a uniform n×m dataset with every score rounded to one of
// levels+1 values: most neighbours in a sorted list tie.
func tiedDataset(t *testing.T, n, m, levels int, seed int64) *Dataset {
	t.Helper()
	ds := mustGenerateDataset(t, "uniform", n, m, seed)
	rows := make([][]float64, n)
	for u := range rows {
		rows[u] = ds.Scores(u)
		for i, s := range rows[u] {
			rows[u][i] = math.Round(s*float64(levels)) / float64(levels)
		}
	}
	tied, err := data.New(fmt.Sprintf("tied(%d)", levels), rows)
	if err != nil {
		t.Fatal(err)
	}
	return tied
}

// pageLayer is one row of TestPageContract: a freshly built layer, the
// list it pages (its length and its entry at each rank, in the layer's own
// predicate numbering), and the page length its rule promises for a read
// of size entries at rank from.
type pageLayer struct {
	name     string
	build    func(t *testing.T) access.Pager
	n        int
	at       func(pred, rank int) access.Entry
	boundary int // a store block or shard page: reads start one before it
	rule     func(from, size int) int
}

// TestPageContract reads every production layer through Page at len(buf) ∈
// {1, 3, 64, more than remains} × from ∈ {0, one before a block or page
// boundary, N-1}, on both predicates, and requires of each read: n ≥ 1 and
// a nil error (and n = 0 with an error past the list), the list's own
// entries, nothing past N, exactly the page length the layer's rule allows
// — the whole request, the rest of a block, one entry, or a prefix read
// that a cold layer serves as the one entry asked for — and a buf the layer
// does not keep: it is poisoned after every read and the page read again.
// Scores take one of five values, so most neighbours tie: every layer must
// serve equal scores higher-id-first, the order the unseen object's tie id
// (state.Table.UnseenTieID) relies on.
func TestPageContract(t *testing.T) {
	const (
		n, m     = 200, 2
		block    = 16 // store block entries
		prefetch = 8  // coordinator shard page
	)
	ds := tiedDataset(t, n, m, 4, 43)
	ctx := context.Background()
	dsAt := func(pred, rank int) access.Entry {
		obj, s := ds.SortedAt(pred, rank)
		return access.Entry{Obj: obj, Score: s}
	}
	full := func(n int) func(from, size int) int {
		return func(from, size int) int { return min(size, n-from) }
	}
	one := func(int, int) int { return 1 }
	base := access.DatasetBackend{DS: ds}

	parts, err := cluster.Partition(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	sd := parts[0]
	shardAt := func(pred, rank int) access.Entry {
		local, s := sd.Local.SortedAt(pred, rank)
		return access.Entry{Obj: sd.Global[local], Score: s}
	}
	remoteShards := func(t *testing.T) []cluster.Shard {
		members := make([]cluster.Shard, len(parts))
		for i, p := range parts {
			srv, err := websim.NewServer(p.Local, websim.WithShardObjects(p.Global, ds.N()))
			if err != nil {
				t.Fatal(err)
			}
			node := clustertest.Start(t, srv)
			rs, err := cluster.DialShard(ctx, node.URL, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rs.Close() })
			members[i] = rs
		}
		return members
	}
	localShards := func() []cluster.Shard {
		members := make([]cluster.Shard, len(parts))
		for i, p := range parts {
			members[i] = cluster.NewLocalShard(p)
		}
		return members
	}
	coordinator := func(t *testing.T, members []cluster.Shard) *cluster.Coordinator {
		c, err := cluster.New(members, cluster.Options{Prefetch: prefetch})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// warm reads the whole list through p, so its shared prefix holds it.
	warm := func(t *testing.T, p access.Pager) access.Pager {
		buf := make([]access.Entry, 7)
		for pred := 0; pred < m; pred++ {
			for from := 0; from < n; {
				k, err := p.Page(ctx, pred, from, buf)
				if err != nil {
					t.Fatal(err)
				}
				from += k
			}
		}
		return p
	}
	dir := t.TempDir()
	if err := store.WriteDataset(dir, ds, store.WriterOptions{BlockEntries: block}); err != nil {
		t.Fatal(err)
	}
	openStore := func(t *testing.T, cacheBlocks int) access.Pager {
		st, err := store.Open(dir, store.Options{CacheBlocks: cacheBlocks})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	storeRule := func(from, size int) int { return min(size, n-from, block-from%block) }
	serve := func(t *testing.T, opts ...websim.ServerOption) string {
		srv, err := websim.NewServer(ds, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	jsonClient := func(t *testing.T, routes ...websim.Route) access.Pager {
		c, err := websim.NewClient(ctx, nil, routes)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	layers := []pageLayer{
		{"dataset", func(*testing.T) access.Pager { return base }, n, dsAt, block, full(n)},
		{"store", func(t *testing.T) access.Pager { return openStore(t, 0) }, n, dsAt, block, storeRule},
		{"store-uncached", func(t *testing.T) access.Pager { return openStore(t, -1) }, n, dsAt, block, storeRule},
		{"local-shard", func(*testing.T) access.Pager { return cluster.NewLocalShard(sd) }, sd.LocalN(), shardAt, prefetch, full(sd.LocalN())},
		{"remote-shard", func(t *testing.T) access.Pager { return remoteShards(t)[0] }, sd.LocalN(), shardAt, prefetch, full(sd.LocalN())},
		{"websim-client", func(t *testing.T) access.Pager {
			url := serve(t)
			return jsonClient(t, websim.Route{BaseURL: url, Pred: 0}, websim.Route{BaseURL: url, Pred: 1})
		}, n, dsAt, block, one},
		// Two sources, one predicate each, assembled with crossed routes:
		// query predicate 0 reads the dataset's predicate 1.
		{"websim-client-crossed", func(t *testing.T) access.Pager {
			p1, p2 := serve(t, websim.WithPredicates(0)), serve(t, websim.WithPredicates(1))
			return jsonClient(t, websim.Route{BaseURL: p2, Pred: 0}, websim.Route{BaseURL: p1, Pred: 0})
		}, n, func(pred, rank int) access.Entry { return dsAt(1-pred, rank) }, block, one},
		{"coordinator-cold", func(t *testing.T) access.Pager { return coordinator(t, localShards()) }, n, dsAt, prefetch, one},
		{"coordinator-warm", func(t *testing.T) access.Pager { return warm(t, coordinator(t, localShards())) }, n, dsAt, prefetch, full(n)},
		{"remote-coordinator-cold", func(t *testing.T) access.Pager { return coordinator(t, remoteShards(t)) }, n, dsAt, prefetch, one},
		{"remote-coordinator-warm", func(t *testing.T) access.Pager { return warm(t, coordinator(t, remoteShards(t))) }, n, dsAt, prefetch, full(n)},
		{"share-cold", func(*testing.T) access.Pager { return share.New(base, share.Options{}) }, n, dsAt, block, one},
		{"share-warm", func(t *testing.T) access.Pager { return warm(t, share.New(base, share.Options{})) }, n, dsAt, block, full(n)},
		{"guard", func(*testing.T) access.Pager { return adapt.NewGuard(base) }, n, dsAt, block, one},
		{"fault", func(*testing.T) access.Pager { return fault.Wrap(base, fault.Config{Seed: 1}) }, n, dsAt, block, one},
	}
	poison := access.Entry{Obj: -7, Score: -7}
	for _, l := range layers {
		t.Run(l.name, func(t *testing.T) {
			for _, from := range []int{0, l.boundary - 1, l.n - 1} {
				for _, size := range []int{1, 3, 64, l.n - from + 5} {
					for pred := 0; pred < m; pred++ {
						read := fmt.Sprintf("p%d from %d, buf of %d", pred+1, from, size)
						p := l.build(t) // a fresh layer per read: a cold layer stays cold
						buf := make([]access.Entry, size)
						k, err := p.Page(ctx, pred, from, buf)
						if err != nil || k < 1 {
							t.Fatalf("%s: n = %d, err = %v; want n ≥ 1 and no error", read, k, err)
						}
						if k > size || from+k > l.n {
							t.Fatalf("%s: %d entries, past the buffer or past N = %d", read, k, l.n)
						}
						if want := l.rule(from, size); k != want {
							t.Errorf("%s: a page of %d, the layer's rule says %d", read, k, want)
						}
						for i, e := range buf[:k] {
							if want := l.at(pred, from+i); e != want {
								t.Fatalf("%s: rank %d = %+v, want %+v", read, from+i, e, want)
							}
							if i > 0 && !data.Less(e.Score, e.Obj, buf[i-1].Score, buf[i-1].Obj) {
								t.Fatalf("%s: rank %d = %+v does not rank below %+v: equal scores come higher id first", read, from+i, e, buf[i-1])
							}
						}
						for i := range buf {
							buf[i] = poison
						}
						again := make([]access.Entry, size)
						k, err = p.Page(ctx, pred, from, again)
						if err != nil || k < 1 {
							t.Fatalf("%s, read again after poisoning the first buffer: n = %d, %v", read, k, err)
						}
						for i, e := range again[:k] {
							if want := l.at(pred, from+i); e != want {
								t.Fatalf("%s, read again after poisoning the first buffer: rank %d = %+v, want %+v", read, from+i, e, want)
							}
						}
					}
				}
			}
			// Past the list: nothing, and an error.
			if k, err := l.build(t).Page(ctx, 0, l.n, make([]access.Entry, 4)); k != 0 || err == nil {
				t.Errorf("page past the list: n = %d, err = %v; want 0 and an error", k, err)
			}
		})
	}
}

// TestRawAccessRangeChecks: a raw caller (no session in front) handing a
// layer an out-of-range predicate, rank or object gets an error from Page,
// Random and BatchRandom alike — never an index panic, and never a wedged
// layer: the same bad access fails again, and a valid one afterwards still
// succeeds.
func TestRawAccessRangeChecks(t *testing.T) {
	const n, m = 60, 2
	ds := mustGenerateDataset(t, "uniform", n, m, 7)
	ctx := context.Background()
	base := access.DatasetBackend{DS: ds}
	parts, err := cluster.Partition(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	localShards := func() []cluster.Shard {
		members := make([]cluster.Shard, len(parts))
		for i, p := range parts {
			members[i] = cluster.NewLocalShard(p)
		}
		return members
	}
	dir := t.TempDir()
	if err := store.WriteDataset(dir, ds, store.WriterOptions{}); err != nil {
		t.Fatal(err)
	}

	layers := []struct {
		name  string
		build func(t *testing.T) access.Backend
		ranks int // length of each sorted list the layer pages
		obj   int // an object the layer can probe
	}{
		{"dataset", func(*testing.T) access.Backend { return base }, n, 0},
		{"store", func(t *testing.T) access.Backend {
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			return st
		}, n, 0},
		{"local-shard", func(*testing.T) access.Backend { return cluster.NewLocalShard(parts[0]) }, parts[0].LocalN(), parts[0].Global[0]},
		{"coordinator", func(t *testing.T) access.Backend {
			c, err := cluster.New(localShards(), cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, n, 0},
		{"share", func(*testing.T) access.Backend { return share.New(base, share.Options{}) }, n, 0},
		{"guard", func(*testing.T) access.Backend { return adapt.NewGuard(base) }, n, 0},
	}
	for _, l := range layers {
		t.Run(l.name, func(t *testing.T) {
			b := l.build(t)
			pages := access.Pages(b)
			bb, batches := b.(access.BatchBackend)
			buf := make([]access.Entry, 4)
			for range 2 {
				for _, a := range [][2]int{{-1, 0}, {m, 0}, {0, -1}, {0, l.ranks}} {
					if k, err := pages.Page(ctx, a[0], a[1], buf); k != 0 || err == nil {
						t.Errorf("Page(pred=%d, from=%d) = %d, %v; want 0 and an error", a[0], a[1], k, err)
					}
				}
				for _, a := range [][2]int{{-1, l.obj}, {m, l.obj}, {0, -1}, {0, n}} {
					if _, err := b.Random(ctx, a[0], a[1]); err == nil {
						t.Errorf("Random(pred=%d, obj=%d): no error", a[0], a[1])
					}
					if !batches {
						continue
					}
					if _, err := bb.BatchRandom(ctx, []int{0, a[0]}, []int{l.obj, a[1]}); err == nil {
						t.Errorf("BatchRandom with (pred=%d, obj=%d): no error", a[0], a[1])
					}
				}
			}
			if k, err := pages.Page(ctx, 0, 0, buf); k < 1 || err != nil {
				t.Errorf("valid Page after the bad ones = %d, %v", k, err)
			}
			for pred := 0; pred < m; pred++ {
				want := ds.Score(l.obj, pred)
				if s, err := b.Random(ctx, pred, l.obj); s != want || err != nil {
					t.Errorf("valid Random(pred=%d, obj=%d) after the bad ones = %g, %v; want %g", pred, l.obj, s, err, want)
				}
				if !batches {
					continue
				}
				if s, err := bb.BatchRandom(ctx, []int{pred}, []int{l.obj}); err != nil || len(s) != 1 || s[0] != want {
					t.Errorf("valid BatchRandom(pred=%d, obj=%d) after the bad ones = %v, %v; want [%g]", pred, l.obj, s, err, want)
				}
			}
		})
	}
}
