package topk

// The Page contract (DESIGN.md §4) held to every layer of the backend stack
// at once: one table of layers, one set of reads, one set of checks.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/access"
	"repro/internal/adapt"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/fault"
	"repro/internal/share"
	"repro/internal/store"
	"repro/internal/websim"
)

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
func TestPageContract(t *testing.T) {
	const (
		n, m     = 200, 2
		block    = 16 // store block entries
		prefetch = 8  // coordinator shard page
	)
	ds := mustGenerateDataset(t, "uniform", n, m, 43)
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
	jsonClient := func(t *testing.T) access.Pager {
		srv, err := websim.NewServer(ds)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		c, err := websim.NewClient(ctx, ts.Client(), []websim.Route{{BaseURL: ts.URL, Pred: 0}, {BaseURL: ts.URL, Pred: 1}})
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
		{"websim-client", jsonClient, n, dsAt, block, one},
		{"coordinator-cold", func(t *testing.T) access.Pager { return coordinator(t, localShards()) }, n, dsAt, prefetch, one},
		{"coordinator-warm", func(t *testing.T) access.Pager { return warm(t, coordinator(t, localShards())) }, n, dsAt, prefetch, full(n)},
		{"remote-coordinator-cold", func(t *testing.T) access.Pager { return coordinator(t, remoteShards(t)) }, n, dsAt, prefetch, one},
		{"remote-coordinator-warm", func(t *testing.T) access.Pager { return warm(t, coordinator(t, remoteShards(t))) }, n, dsAt, prefetch, full(n)},
		{"share-cold", func(*testing.T) access.Pager { return share.New(base, share.Options{}) }, n, dsAt, block, one},
		{"share-warm", func(t *testing.T) access.Pager { return warm(t, share.New(base, share.Options{})) }, n, dsAt, block, full(n)},
		{"guard", func(*testing.T) access.Pager { return adapt.NewGuard(base) }, n, dsAt, block, one},
		{"fault", func(*testing.T) access.Pager { return fault.Wrap(base, fault.Config{Seed: 1}) }, n, dsAt, block, one},
		{"catalog", func(t *testing.T) access.Pager {
			c := catalog.New()
			for i, name := range []string{"q", "p"} {
				if err := c.Register(catalog.Registration{Source: "s", PredName: name, Backend: base, LocalPred: 1 - i, Sorted: true}); err != nil {
					t.Fatal(err)
				}
			}
			b, err := c.Backend()
			if err != nil {
				t.Fatal(err)
			}
			return b.(access.Pager)
		}, n, func(pred, rank int) access.Entry { return dsAt(1-pred, rank) }, block, full(n)},
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
