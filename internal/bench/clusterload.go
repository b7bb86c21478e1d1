package bench

// Cluster scatter-gather throughput workload (BENCH_cluster.json): one
// large dataset served either by a single throttled source node or
// partitioned over several, with concurrent clients running the same
// top-k query against each deployment. Every node serves one entry at a
// time and each entry costs a fixed slice of wall time — the bounded
// per-source capacity the paper's cost model bills for — so aggregate
// throughput is capped by nodes/AccessCost and sharding the sources is
// the only way past one node's ceiling. The coordinator is rebuilt per
// query: no merged frontier survives between queries, so the measured
// speedup comes from scatter-gather parallelism alone, not from
// cross-query caching (the sharing layer exists for that and is
// measured by BENCH_share.json).
//
// cmd/topkbench -cluster drives this workload from the CLI;
// BenchmarkCluster and TestClusterGate (cluster_bench_test.go) pin the
// committed baseline.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/score"
)

// ClusterLoad parameterizes the workload. The zero value is usable: see
// withDefaults for the committed BENCH_cluster.json shape.
type ClusterLoad struct {
	// N, M, Dist, Seed shape the dataset (default zipf 1e6 x 3, seed 42:
	// large enough that the score matrix outgrows CPU caches). Dist is a
	// distribution name for data.DistributionByName; empty means zipf.
	N, M int
	Dist string
	Seed int64
	// K is the retrieval size (default 10).
	K int
	// Shards is the node count; 1 serves the whole dataset from one
	// throttled node (the baseline), >1 partitions it and scatter-gathers
	// through a cluster coordinator.
	Shards int
	// Workers is the number of concurrent query clients (default 16, so
	// the default Queries all run concurrently and the shards never
	// starve for demand).
	Workers int
	// Queries is the total query count across workers (default 12).
	Queries int
	// AccessCost is the simulated service time per entry at each node
	// (default 30us). Nodes serve serially, so one node's capacity is
	// 1/AccessCost entries per second regardless of client concurrency.
	// The default keeps node service time well above the client-side CPU
	// per query even when three shards split it, so the measured speedup
	// reflects source capacity — the paper's cost model — and survives a
	// single-core runner.
	AccessCost time.Duration
	// H and Omega fix the NC configuration every query runs, so the
	// per-query access footprint is identical across deployments (default
	// h=0.8 per predicate with the natural probe order — the measured
	// sweet spot for the default Zipf workload, ~52k entries/query at
	// n=10^6: shallower depths explode the probe phase, deeper ones
	// drain whole lists).
	H     []float64
	Omega []int
}

func (c ClusterLoad) withDefaults() ClusterLoad {
	if c.N == 0 {
		c.N = 1_000_000
	}
	if c.M == 0 {
		c.M = 3
	}
	if c.Dist == "" {
		c.Dist = data.Zipf.String()
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Workers == 0 {
		c.Workers = 16
	}
	if c.Queries == 0 {
		c.Queries = 12
	}
	if c.AccessCost == 0 {
		c.AccessCost = 30 * time.Microsecond
	}
	if c.H == nil {
		c.H = make([]float64, c.M)
		for i := range c.H {
			c.H[i] = 0.8
		}
	}
	return c
}

// ClusterLoadResult reports one deployment's measured throughput.
type ClusterLoadResult struct {
	Shards  int
	Queries int
	Elapsed time.Duration
	// QueriesPerSec is the aggregate client-side throughput.
	QueriesPerSec float64
	// NodeEntries counts entries actually served by the throttled nodes —
	// billed accesses plus coordinator prefetch overshoot — so
	// EntriesPerQuery exposes the scatter-gather fan-out tax directly.
	NodeEntries     int64
	EntriesPerQuery float64
}

func (r ClusterLoadResult) String() string {
	return fmt.Sprintf("shards=%d queries=%d elapsed=%v throughput=%.1f queries/s node-entries/query=%.0f",
		r.Shards, r.Queries, r.Elapsed.Round(time.Millisecond), r.QueriesPerSec, r.EntriesPerQuery)
}

// node throttles one source: a mutex serializes service and every entry
// costs AccessCost of wall time, modeling a single-threaded web source
// whose capacity does not grow with client concurrency. It wraps a
// cluster.Shard so the same type serves both deployments — directly as
// an access.Backend for the single-node baseline, and behind the
// coordinator for the sharded one.
type node struct {
	cluster.Shard
	cost   time.Duration
	mu     sync.Mutex
	debt   time.Duration // accrued service time not yet slept off
	served atomic.Int64
}

// throttleQuantum batches the throttle sleeps: per-entry costs accrue as
// debt and the node only sleeps once at least this much is owed. A raw
// time.Sleep(10us) per entry would be dominated by timer granularity;
// millisecond sleeps are accurate, and measuring each sleep and crediting
// the oversleep back keeps long-run capacity at exactly 1/AccessCost.
const throttleQuantum = time.Millisecond

func newNode(inner cluster.Shard, cost time.Duration) *node {
	return &node{Shard: inner, cost: cost}
}

// serve charges the node's serial capacity for entries: the lock is held
// across the sleep on purpose — concurrent requests queue exactly like
// they would at a busy source.
func (t *node) serve(entries int) {
	t.mu.Lock()
	t.debt += time.Duration(entries) * t.cost
	if t.debt >= throttleQuantum {
		start := time.Now()
		//topklint:allow lockdiscipline sleeping under the lock IS the model: a serial source serves one request at a time
		time.Sleep(t.debt)
		t.debt -= time.Since(start) // oversleep becomes credit
	}
	t.mu.Unlock()
	t.served.Add(int64(entries))
}

func (t *node) Unwrap() access.Backend { return t.Shard }

// Page serves one entry per call, charging it: a coordinator's page fill
// reads until full, so paging saves it round trips, never service time, and
// a session reading the node directly is charged for what it consumes.
func (t *node) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	t.serve(1)
	return t.Shard.Page(ctx, pred, from, buf[:1])
}

func (t *node) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, t, pred, rank))
}

func (t *node) Random(ctx context.Context, pred, obj int) (float64, error) {
	t.serve(1)
	return t.Shard.Random(ctx, pred, obj)
}

func (t *node) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	t.serve(len(objs))
	return t.Shard.(access.BatchBackend).BatchRandom(ctx, preds, objs)
}

// RunClusterLoad builds the deployment and drives the workload, returning
// the measured throughput.
func RunClusterLoad(cfg ClusterLoad) (ClusterLoadResult, error) {
	cfg = cfg.withDefaults()
	dist, err := data.DistributionByName(cfg.Dist)
	if err != nil {
		return ClusterLoadResult{}, err
	}
	ds, err := data.Generate(dist, cfg.N, cfg.M, cfg.Seed)
	if err != nil {
		return ClusterLoadResult{}, err
	}
	return runClusterLoad(cfg, ds)
}

// runClusterLoad runs the workload over an already-built dataset (the
// gate test reuses one dataset across deployments).
func runClusterLoad(cfg ClusterLoad, ds *data.Dataset) (ClusterLoadResult, error) {
	cfg = cfg.withDefaults()
	scn := access.Uniform(cfg.M, 1, 1)
	f := score.Avg()

	var nodes []*node
	var backend func() (access.Backend, error)
	if cfg.Shards <= 1 {
		n := newNode(cluster.WrapShard(access.DatasetBackend{DS: ds}, ds.N()), cfg.AccessCost)
		nodes = []*node{n}
		backend = func() (access.Backend, error) { return n, nil }
	} else {
		parts, err := cluster.Partition(ds, cfg.Shards)
		if err != nil {
			return ClusterLoadResult{}, err
		}
		shards := make([]cluster.Shard, len(parts))
		for i, sd := range parts {
			n := newNode(cluster.NewLocalShard(sd), cfg.AccessCost)
			nodes = append(nodes, n)
			shards[i] = n
		}
		// A fresh coordinator per query: its merged frontier must not
		// leak between queries, or the measurement would credit caching
		// to sharding.
		backend = func() (access.Backend, error) {
			coord, err := cluster.New(shards, cluster.Options{})
			if err != nil {
				return nil, err
			}
			return coord, nil
		}
	}

	sel, err := algo.NewSRG(cfg.H, cfg.Omega)
	if err != nil {
		return ClusterLoadResult{}, err
	}
	alg := &algo.NC{Sel: sel}
	// Each worker owns one Scratch: at n=10^6 a fresh per-query score
	// table is tens of MB, and the GC churn of allocating one per query
	// steals the single measurement core and swamps the signal.
	runOne := func(sc *algo.Scratch) error {
		b, err := backend()
		if err != nil {
			return err
		}
		sess, err := access.NewSession(b, scn)
		if err != nil {
			return err
		}
		prob, err := algo.NewProblem(f, cfg.K, sess)
		if err != nil {
			return err
		}
		_, err = alg.RunScratch(prob, sc)
		return err
	}
	scratch := make([]*algo.Scratch, cfg.Workers)
	for i := range scratch {
		scratch[i] = new(algo.Scratch)
	}
	// Warm every worker's scratch to steady state (and surface workload
	// errors) before the clock starts. The throttle is lifted for the
	// warm-up — it exists to price the measured queries, and paying it
	// Workers more times here would dwarf the measurement — and restored
	// before the clock starts. No queries run concurrently with the
	// mutation.
	for _, n := range nodes {
		n.cost = 0
	}
	for _, sc := range scratch {
		if err := runOne(sc); err != nil {
			return ClusterLoadResult{}, err
		}
	}
	for _, n := range nodes {
		n.cost = cfg.AccessCost
		n.debt = 0
		n.served.Store(0)
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(sc *algo.Scratch) {
			defer wg.Done()
			for next.Add(1) <= int64(cfg.Queries) {
				if err := runOne(sc); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(scratch[w])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return ClusterLoadResult{}, firstErr
	}

	var served int64
	for _, n := range nodes {
		served += n.served.Load()
	}
	return ClusterLoadResult{
		Shards:          cfg.Shards,
		Queries:         cfg.Queries,
		Elapsed:         elapsed,
		QueriesPerSec:   float64(cfg.Queries) / elapsed.Seconds(),
		NodeEntries:     served,
		EntriesPerQuery: float64(served) / float64(cfg.Queries),
	}, nil
}
