package topk

// Backend-stack tests (DESIGN.md "Backend stack"): whatever layers are
// stacked between a base and the engine, in whatever order, the query
// layer must not be able to tell — and what the engine resolves from the
// stack (sharing layer, shard membership) must survive every wrapper that
// declares Unwrap.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/share"
)

// unplugShard fails every probe once down is set, so one routed probe
// fences it (FailureThreshold 1).
type unplugShard struct {
	cluster.Shard
	down atomic.Bool
}

func (s *unplugShard) Random(ctx context.Context, pred, obj int) (float64, error) {
	if s.down.Load() {
		return 0, errors.New("shard unplugged")
	}
	return s.Shard.Random(ctx, pred, obj)
}

// bareWrapper is the least a stack layer can be: it forwards everything by
// embedding and declares Unwrap.
type bareWrapper struct{ Backend }

func (w bareWrapper) Unwrap() Backend { return w.Backend }

// ctxContract is the test-only top of every stack TestStackCompositionOracle
// builds. It hands each access a child context of its own and records any
// Err, Done, Deadline or Value call on it after the access returned — the
// rule that a Backend must not use ctx past the access, which the deadlines
// recycled across requests (access.Deadline) rely on: a layer that broke it
// would read another request's deadline. A page gets a buffer of its own
// too, copied out and poisoned when the page returns: a layer that wrote it
// afterwards would be writing into the next refill's window.
type ctxContract struct {
	Backend
	broken *atomic.Value // the first violation's description (string)
	lent   *lentPages
}

// lentPages keeps every buffer ctxContract lent a page, poisoned.
type lentPages struct {
	mu    sync.Mutex
	pages [][]access.Entry
}

var poisoned = access.Entry{Obj: -1, Score: -1}

func newCtxContract(b Backend) ctxContract { return ctxContract{b, new(atomic.Value), new(lentPages)} }

func (w ctxContract) Unwrap() Backend { return w.Backend }

func (w ctxContract) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	c := &accessCtx{parent: ctx, broken: w.broken, access: fmt.Sprintf("page(p%d, rank %d)", pred+1, from)}
	defer c.returned.Store(true)
	lent := make([]access.Entry, len(buf))
	n, err := access.Pages(w.Backend).Page(c, pred, from, lent)
	copy(buf, lent[:n])
	for i := range lent {
		lent[i] = poisoned
	}
	w.lent.mu.Lock()
	w.lent.pages = append(w.lent.pages, lent)
	w.lent.mu.Unlock()
	return n, err
}

func (w ctxContract) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, w, pred, rank))
}

func (w ctxContract) Random(ctx context.Context, pred, obj int) (float64, error) {
	c := &accessCtx{parent: ctx, broken: w.broken, access: fmt.Sprintf("random(p%d, u%d)", pred+1, obj)}
	defer c.returned.Store(true)
	return w.Backend.Random(c, pred, obj)
}

// violation reports the first use of an access's context, or write to a
// page's buffer, after the access returned.
func (w ctxContract) violation() string {
	if s, _ := w.broken.Load().(string); s != "" {
		return s
	}
	w.lent.mu.Lock()
	defer w.lent.mu.Unlock()
	for _, page := range w.lent.pages {
		for _, e := range page {
			if e != poisoned {
				return fmt.Sprintf("a page's buffer was written after the page returned: %+v", e)
			}
		}
	}
	return ""
}

// accessCtx is one access's child context.
type accessCtx struct {
	parent   context.Context
	broken   *atomic.Value
	access   string
	returned atomic.Bool
}

func (c *accessCtx) check(method string) {
	if c.returned.Load() {
		c.broken.CompareAndSwap(nil, fmt.Sprintf("ctx.%s() called after %s returned", method, c.access))
	}
}

func (c *accessCtx) Deadline() (time.Time, bool) { c.check("Deadline"); return c.parent.Deadline() }
func (c *accessCtx) Done() <-chan struct{}       { c.check("Done"); return c.parent.Done() }
func (c *accessCtx) Err() error                  { c.check("Err"); return c.parent.Err() }
func (c *accessCtx) Value(key any) any           { c.check("Value"); return c.parent.Value(key) }

// TestClusterPlanCacheKeying is the cluster sibling of
// TestStorePlanCacheKeying: a plan chosen against one shard membership
// must not be replayed against another, however the coordinator is reached.
// Per row: a run misses, a repeat hits, a shard is fenced, and the next
// lookup must miss under the new membership key. The last lookup is an
// Explain — same cache, same key, no source access — because the fenced
// shard would refuse the accesses of a run.
func TestClusterPlanCacheKeying(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 90, 3, 17)
	rows := []struct {
		name  string
		cols  []int // Query.Cols
		stack func(c *cluster.Coordinator) Backend
		opts  []EngineOption
	}{
		{"direct", nil, func(c *cluster.Coordinator) Backend { return c }, nil},
		{"projected", []int{2, 0}, func(c *cluster.Coordinator) Backend { return c }, nil},
		{"shared", nil, func(c *cluster.Coordinator) Backend { return NewSharedAccess(c, SharingOptions{}) }, nil},
		{"guarded", nil, func(c *cluster.Coordinator) Backend { return c }, []EngineOption{WithContractGuard()}},
		{"fault-wrapped", nil, func(c *cluster.Coordinator) Backend { return fault.Wrap(c, fault.Config{}) }, nil},
		{"bare-wrapper", nil, func(c *cluster.Coordinator) Backend { return bareWrapper{c} }, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			parts, err := cluster.Partition(ds, 3)
			if err != nil {
				t.Fatal(err)
			}
			victim := &unplugShard{Shard: cluster.NewLocalShard(parts[1])}
			coord, err := cluster.New([]cluster.Shard{cluster.NewLocalShard(parts[0]), victim, cluster.NewLocalShard(parts[2])},
				cluster.Options{Breaker: BreakerConfig{FailureThreshold: 1}})
			if err != nil {
				t.Fatal(err)
			}
			cache := NewPlanCache(0)
			eng, err := NewEngine(row.stack(coord), UniformScenario(3, 1, 8), append(row.opts, WithPlanCache(cache))...)
			if err != nil {
				t.Fatal(err)
			}
			// An explicit discount pins the one other part of the key a stack
			// can move (the sharing layer's observed hit rates).
			q, cfg := Query{F: Avg(), K: 5, Cols: row.cols}, OptimizerConfig{SortedDiscount: 0.1}
			for i := 0; i < 2; i++ {
				if _, err := eng.Run(q, WithOptimizer(cfg)); err != nil {
					t.Fatal(err)
				}
			}
			if got := cache.Stats(); got.Misses != 1 || got.Hits != 1 {
				t.Fatalf("stable membership: %+v, want one miss then one hit", got)
			}
			before := coord.MembershipKey()
			victim.down.Store(true)
			if _, err := coord.Random(context.Background(), 0, parts[1].Global[0]); err == nil {
				t.Fatal("probe of the unplugged shard succeeded")
			}
			if after := coord.MembershipKey(); after == before {
				t.Fatalf("membership key %q did not move on the fence", after)
			}
			if _, err := eng.Explain(q, cfg); err != nil {
				t.Fatal(err)
			}
			if got := cache.Stats(); got.Misses != 2 || got.Hits != 1 {
				t.Errorf("after the fence: %+v, want a second miss (a hit replays a plan chosen for the old membership)", got)
			}
		})
	}
}

// TestStackCompositionOracle is the seed corpus of the every-composition
// oracle: every stack of {base} × {column selection on the query
// (Query.Cols): none, a full-width reordering, the identity list, a
// narrowing reordering} × {sharing, under or over the zero-fault injector}
// × {zero-fault injector} × {contract guard} answers byte-identically to
// single-node memory over the same columns — items, ledger, and every
// prefix a cursor emits on the way (the any-k criterion: each prefix is
// itself a correct answer) — with trace == ledger, and from the top of
// every stack access.As still finds the base, the sharing layer and the
// shard membership. The query's Cols are the one column map: no layer of
// any stack renumbers predicates. Without the injector, sharing under and
// over it is the same stack.
func TestStackCompositionOracle(t *testing.T) {
	const n, m, page = 60, 3, 3
	ds := mustGenerateDataset(t, "uniform", n, m, 29)
	dir := t.TempDir()
	if err := BuildStoreFromDataset(dir, ds, StoreWriterOptions{BlockEntries: 16}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	coord := newTestCluster(t, ds, 3)

	bases := []struct {
		name string
		b    Backend
	}{{"memory", DataBackend(ds)}, {"store", st}, {"cluster", coord}}
	projections := []struct {
		name  string
		cols  []int // the reference's columns
		query []int // Query.Cols
	}{
		{"identity", []int{0, 1, 2}, nil}, {"reordered", []int{1, 2, 0}, []int{1, 2, 0}},
		{"cols-identity", []int{0, 1, 2}, []int{0, 1, 2}}, {"cols-reordered", []int{2, 0}, []int{2, 0}},
	}

	for _, proj := range projections {
		pds, err := data.Project(ds, proj.cols)
		if err != nil {
			t.Fatal(err)
		}
		scn := UniformScenario(len(proj.cols), 1, 4)
		h := make([]float64, len(proj.cols))
		for i := range h {
			h[i] = 0.5
		}
		for _, f := range []ScoreFunc{Avg(), Min()} {
			q := Query{F: f, K: 2 * page}
			ref, err := NewEngine(DataBackend(pds), scn)
			if err != nil {
				t.Fatal(err)
			}
			want := stackRun(t, ref, q, h, page)
			q.Cols = proj.query

			for _, base := range bases {
				for _, sharing := range []string{"", "share-under", "share-over"} {
					for _, faulted := range []bool{false, true} {
						for _, guarded := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%s/%s/fault=%v/guard=%v", base.name, proj.name, f.Name(), sharing, faulted, guarded)
							t.Run(name, func(t *testing.T) {
								b := base.b
								if sharing == "share-under" { // the service's order
									b = NewSharedAccess(b, SharingOptions{})
								}
								if faulted {
									b = fault.Wrap(b, fault.Config{})
								}
								if sharing == "share-over" {
									b = NewSharedAccess(b, SharingOptions{})
								}
								contract := newCtxContract(b)
								b = contract
								var opts []EngineOption
								if guarded {
									opts = append(opts, WithContractGuard())
								}
								eng, err := NewEngine(b, UniformScenario(m, 1, 4), opts...)
								if err != nil {
									t.Fatal(err)
								}
								if got := stackRun(t, eng, q, h, page); !reflect.DeepEqual(got, want) {
									t.Errorf("stack diverges from single-node memory:\n got  %+v\n want %+v", got, want)
								}
								if v := contract.violation(); v != "" {
									t.Errorf("a layer broke the ctx contract: %s", v)
								}

								top := eng.backend
								if found, ok := access.As[Backend](top); !ok || found != top {
									t.Error("As does not find the top of the stack itself")
								}
								switch base.name {
								case "memory":
									if _, ok := access.As[access.DatasetBackend](top); !ok {
										t.Error("As lost the dataset backend")
									}
								case "store":
									if found, ok := access.As[*Store](top); !ok || found != st {
										t.Error("As lost the store")
									}
								case "cluster":
									if found, ok := access.As[*cluster.Coordinator](top); !ok || found != coord {
										t.Error("As lost the coordinator")
									}
									if eng.members == nil || eng.members.MembershipKey() == "" {
										t.Error("engine resolved no membership key below the stack")
									}
								}
								if _, ok := access.As[*share.Layer](top); ok != (sharing != "") {
									t.Errorf("As finds a sharing layer = %v, stack has one = %v", ok, sharing != "")
								}
								if (eng.share != nil) != (sharing != "") {
									t.Errorf("engine resolved a sharing layer = %v, stack has one = %v", eng.share != nil, sharing != "")
								}
							})
						}
					}
				}
			}
		}
	}
}

// stackResult is everything one engine shows the query layer for a query:
// the one-shot answer and each page of the same query paged in two.
type stackResult struct {
	Items  []Item
	Ledger Ledger
	Pages  [2]Page
}

// stackRun runs q under the fixed plan h both ways — Run, and Open /
// Next(page) ×2 / Close — checking trace == ledger on each.
func stackRun(t *testing.T, eng *Engine, q Query, h []float64, page int) stackResult {
	t.Helper()
	ans, err := eng.Run(q, WithNC(h, nil), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "run", ans)
	res := stackResult{Items: ans.Items, Ledger: ans.Ledger}

	cur, err := eng.Open(q, WithNC(h, nil), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := range res.Pages {
		p, err := cur.Next(page)
		if err != nil {
			t.Fatal(err)
		}
		res.Pages[i] = *p
		checkConservation(t, fmt.Sprintf("page %d", i), &Answer{Ledger: p.Ledger, Trace: cur.Trace()})
	}
	if !reflect.DeepEqual(res.Pages[1].Ledger, res.Ledger) {
		t.Errorf("paged ledger %+v != one-shot ledger %+v", res.Pages[1].Ledger, res.Ledger)
	}
	return res
}
