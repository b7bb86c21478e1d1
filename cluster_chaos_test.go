package topk

// Chaos matrix row for the cluster: kill one shard mid-query. A 3-shard
// scatter-gather deployment runs the Figure-2 matrix while one shard's
// node goes dark partway through the access sequence — permanently
// ("shard-dies") or for a bounded window ("shard-blips"). The contract is
// the cluster instance of the repo's headline invariant: every query
// either returns the exact top-k or an explicitly degraded (Truncated +
// machine-readable reasons) answer. No query may hang past its deadline,
// panic, or silently return a wrong "exact" result — a dead shard means
// missing objects, which is exactly the silent-wrongness a coordinator
// could smuggle past a client. After every run, trace must equal ledger:
// recovery and retries may not double-bill or lose accesses.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/websim"
)

// woundedCluster builds a 3-shard cluster over ds with the given shard's
// node wrapped in the deterministic fault injector. The wrapped shard
// loses its paging fast path (the fault layer only speaks the scalar
// Backend protocol), which is itself realistic: a sick node degrades to
// entry-at-a-time service before it dies.
func woundedCluster(t *testing.T, ds *Dataset, victim int, faults fault.Config) *cluster.Coordinator {
	t.Helper()
	parts, err := cluster.Partition(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]cluster.Shard, len(parts))
	for i, sd := range parts {
		local := cluster.NewLocalShard(sd)
		if i == victim {
			members[i] = cluster.WrapShard(fault.Wrap(local, faults), local.LocalN())
		} else {
			members[i] = local
		}
	}
	coord, err := cluster.New(members, cluster.Options{
		Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// shardChaosProfiles: "shard-dies" takes the victim down permanently after
// a few accesses per predicate; "shard-blips" takes it down for a bounded
// access window so retries through the breaker cooldown can recover.
func shardChaosProfiles(seed int64) map[string]fault.Config {
	allPreds := func(pf fault.PredFault) map[int]fault.PredFault {
		return map[int]fault.PredFault{0: pf, 1: pf, 2: pf}
	}
	return map[string]fault.Config{
		"shard-dies":  {Seed: seed, Preds: allPreds(fault.PredFault{OutageFrom: 4, OutageTo: -1})},
		"shard-blips": {Seed: seed, Preds: allPreds(fault.PredFault{OutageFrom: 3, OutageTo: 8})},
	}
}

// assertHonestAnswer is the chaos contract on one answer: trace equals
// ledger — fencing, retries and re-planning may not double-bill or lose
// accesses — and the answer is either untruncated and free of degraded
// reasons (true: the caller checks it against the oracle) or explicitly
// degraded, and then honest about what it claims to know exactly (false).
func assertHonestAnswer(t *testing.T, ds *Dataset, f ScoreFunc, ans *Answer) bool {
	t.Helper()
	for i := range ans.Ledger.SortedCounts {
		st, rt := 0, 0
		if i < len(ans.Trace.SortedAccesses) {
			st = ans.Trace.SortedAccesses[i]
		}
		if i < len(ans.Trace.RandomAccesses) {
			rt = ans.Trace.RandomAccesses[i]
		}
		if st != ans.Ledger.SortedCounts[i] || rt != ans.Ledger.RandomCounts[i] {
			t.Fatalf("trace (%d,%d) vs ledger (%d,%d) at pred %d",
				st, rt, ans.Ledger.SortedCounts[i], ans.Ledger.RandomCounts[i], i)
		}
	}
	if !ans.Truncated {
		if len(ans.Degraded) != 0 {
			t.Fatalf("exact answer carries degraded reasons %v", ans.Degraded)
		}
		return true
	}
	if len(ans.Degraded) == 0 {
		t.Fatal("truncated answer carries no degraded reasons")
	}
	for _, it := range ans.Items {
		if it.Exact {
			truth := f.Eval(ds.Scores(it.Obj))
			if math.Abs(it.Score-truth) > 1e-9 {
				t.Fatalf("degraded answer lies: object %d exact %g, truth %g", it.Obj, it.Score, truth)
			}
		}
	}
	return false
}

func TestChaosShardLoss(t *testing.T) {
	const (
		n        = 60
		k        = 5
		deadline = 20 * time.Second
	)
	seeds := []int64{1, 7, 42}

	exactCount, degradedCount := 0, 0
	for _, cell := range figure2Cells(3, 10) {
		for _, seed := range seeds {
			for profile, faults := range shardChaosProfiles(seed) {
				t.Run(fmt.Sprintf("%s/seed%d/%s", cell.name, seed, profile), func(t *testing.T) {
					ds, err := data.Generate(data.Uniform, n, 3, seed)
					if err != nil {
						t.Fatal(err)
					}
					coord := woundedCluster(t, ds, int(seed)%3, faults)
					breakers := NewBreakerSet(3, BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Millisecond})
					eng, err := NewEngine(coord, cell.scn)
					if err != nil {
						t.Fatal(err)
					}
					ctx, cancel := context.WithTimeout(context.Background(), deadline)
					defer cancel()
					start := time.Now()
					ans, err := eng.Run(Query{F: Min(), K: k},
						WithContext(ctx),
						WithTrace(),
						WithResilience(&Resilience{
							Breakers:      breakers,
							AccessTimeout: 50 * time.Millisecond,
						}))
					elapsed := time.Since(start)
					if err != nil {
						t.Fatalf("shard-loss run errored (must degrade instead): %v", err)
					}
					if elapsed >= deadline {
						t.Fatalf("query overran its deadline: %v", elapsed)
					}

					if !assertHonestAnswer(t, ds, Min(), ans) {
						degradedCount++
						return
					}
					assertExactTopK(t, ds, Min(), k, ans)
					exactCount++
				})
			}
		}
	}
	// Both sides of the contract must be exercised: the blip profile must
	// recover to exact answers somewhere, and the permanent loss must
	// force explicit degradation somewhere.
	if exactCount == 0 {
		t.Error("no shard-loss run recovered to an exact answer")
	}
	if degradedCount == 0 {
		t.Error("no shard-loss run degraded explicitly")
	}
}

// tripwire runs trip just before the at-th access to the backend it
// wraps: the hook that makes "mid-query" a fixed point of the access
// sequence instead of a race.
type tripwire struct {
	Backend
	seen atomic.Int64
	at   map[int64]func()
}

func (w *tripwire) step() {
	if trip := w.at[w.seen.Add(1)]; trip != nil {
		trip()
	}
}

func (w *tripwire) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	w.step()
	return w.Backend.Sorted(ctx, pred, rank)
}

func (w *tripwire) Random(ctx context.Context, pred, obj int) (float64, error) {
	w.step()
	return w.Backend.Random(ctx, pred, obj)
}

// TestChaosShardWire is the chaos row of the shard wire itself: the
// faults live between the coordinator and real shard nodes, not in an
// in-process wrapper. Faults the wire's retry loop can absorb — every
// node restarting on its address mid-query, replies cut off mid-frame, a
// node refusing every fifth frame — must be invisible in the answer and in
// the bill (the undisturbed single-node ledger, access for access) and
// visible only as observed retries. A fault it cannot absorb — an outage
// longer than the retries — must fence the shard and end, as a lost
// in-process shard does, in an exact or an explicitly degraded answer.
func TestChaosShardWire(t *testing.T) {
	const (
		n = 90
		m = 3
		k = 5
	)
	ds := mustGenerateDataset(t, "uniform", n, m, 7)
	scn := UniformScenario(m, 1, 4)
	q := Query{F: Min(), K: k}
	nc := WithNC([]float64{0.6, 0.6, 0.6}, nil)
	singleEng, err := NewEngine(DataBackend(ds), scn)
	if err != nil {
		t.Fatal(err)
	}
	undisturbed, err := singleEng.Run(q, nc)
	if err != nil {
		t.Fatal(err)
	}
	if accesses := undisturbed.Ledger.TotalAccesses(); accesses < 30 {
		t.Fatalf("the query makes only %d accesses: too few to wound mid-way", accesses)
	}

	absorbed := []struct {
		name       string
		serverOpts []websim.ServerOption
		// wound maps access ordinals of the query to what happens to the
		// nodes just before them.
		wound func(nodes []*clustertest.Node) map[int64]func()
	}{
		{"nodes-restart", nil, func(nodes []*clustertest.Node) map[int64]func() {
			return map[int64]func(){12: func() {
				for _, node := range nodes {
					node.Down()
					time.AfterFunc(10*time.Millisecond, node.Up)
				}
			}}
		}},
		{"replies-cut-mid-frame", nil, func(nodes []*clustertest.Node) map[int64]func() {
			cut := func() {
				for _, node := range nodes {
					node.CutNextWrite()
				}
			}
			return map[int64]func(){5: cut, 14: cut, 23: cut}
		}},
		{"every-fifth-frame-refused", []websim.ServerOption{websim.WithFailEvery(5), websim.WithRetryAfter(2 * time.Millisecond)},
			func([]*clustertest.Node) map[int64]func() { return nil }},
	}
	for _, tc := range absorbed {
		t.Run(tc.name, func(t *testing.T) {
			tr, reg := obs.NewQueryTrace(), obs.NewRegistry()
			coord, nodes := newRemoteTestCluster(t, ds, 3, cluster.Options{},
				func(int) []websim.ServerOption { return tc.serverOpts },
				websim.WithRetries(6, 4*time.Millisecond), websim.WithObserver(obs.Multi(tr, obs.NewMetrics(reg))))
			before := coord.MembershipKey()
			eng, err := NewEngine(&tripwire{Backend: coord, at: tc.wound(nodes)}, scn)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := eng.Run(q, nc, WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			if !assertHonestAnswer(t, ds, q.F, ans) {
				t.Fatalf("a fault the retry loop absorbs degraded the answer: %v", ans.Degraded)
			}
			if !reflect.DeepEqual(ans.Items, undisturbed.Items) || !reflect.DeepEqual(ans.Ledger, undisturbed.Ledger) {
				t.Errorf("wounded run diverges from the undisturbed one:\n wounded     %v %+v\n undisturbed %v %+v",
					ans.Items, ans.Ledger, undisturbed.Items, undisturbed.Ledger)
			}
			s := tr.Snapshot()
			if s.SourceRetries == 0 || s.SourceFailures != 0 {
				t.Errorf("observed %d retries and %d failed accesses, want retries and no failure", s.SourceRetries, s.SourceFailures)
			}
			// The same retries, as a coordinator's /metrics reports them.
			if got := reg.Counter("topk_source_retries_total", "").Value(); got != int64(s.SourceRetries) {
				t.Errorf("topk_source_retries_total = %d on the coordinator's registry, the wires retried %d times", got, s.SourceRetries)
			}
			if after := coord.MembershipKey(); after != before {
				t.Errorf("an absorbed fault moved the membership from %s to %s", before, after)
			}
		})
	}

	// An outage that outlasts the retries: accesses to the victim fail,
	// the coordinator fences it at its threshold, and the answer is exact
	// (the window closed and a half-open probe brought the shard back) or
	// explicitly degraded — the wrapped-shard contract, over the wire.
	for _, window := range []struct {
		name     string
		from, to int
	}{{"shard-blips", 3, 11}, {"shard-dies", 3, 1 << 30}} {
		t.Run(window.name, func(t *testing.T) {
			tr := obs.NewQueryTrace()
			coord, _ := newRemoteTestCluster(t, ds, 3, cluster.Options{Prefetch: 2, Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: 20 * time.Millisecond}},
				func(shard int) []websim.ServerOption {
					if shard != 1 {
						return nil
					}
					return []websim.ServerOption{websim.WithOutageWindow(window.from, window.to), websim.WithRetryAfter(time.Millisecond)}
				},
				websim.WithRetries(1, time.Millisecond), websim.WithObserver(tr))
			before := coord.MembershipKey()
			eng, err := NewEngine(coord, scn)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			ans, err := eng.Run(q, WithContext(ctx), WithTrace(), WithResilience(&Resilience{
				Breakers:      NewBreakerSet(m, BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Millisecond}),
				AccessTimeout: 200 * time.Millisecond,
			}))
			if err != nil {
				t.Fatalf("shard-outage run errored (must degrade instead): %v", err)
			}
			if assertHonestAnswer(t, ds, q.F, ans) {
				assertExactTopK(t, ds, q.F, k, ans)
			}
			if s := tr.Snapshot(); s.SourceRetries == 0 || s.SourceFailures < 2 {
				t.Errorf("observed %d retries and %d failed accesses: the outage never exhausted a retry budget", s.SourceRetries, s.SourceFailures)
			}
			if coord.MembershipKey() == before {
				t.Error("two failed accesses in a row did not fence the shard")
			}
			if window.name == "shard-dies" && !ans.Truncated {
				t.Error("a shard that never came back left an untruncated answer")
			}
		})
	}
}
