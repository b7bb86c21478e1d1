package main

import (
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	topk "repro"
	"repro/internal/access"
	"repro/internal/adapt"
	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/score"
	"repro/internal/service"
	"repro/internal/share"
	"repro/internal/sqlq"
	"repro/internal/store"
	"repro/internal/websim"
)

// The ladder's fixed script: ladderSorted sorted accesses round-robin over
// the predicates of a zipf ladderN x ladderM dataset, then ladderProbes
// random accesses to objects the sorted phase has seen. Every rung replays
// it against one layer's public functions, timed from outside.
const (
	ladderN      = 100000
	ladderM      = 3
	ladderSorted = 20000
	ladderProbes = 2000
	// ladderPage is the page and batch size of paged and batched calls,
	// the coordinator's default prefetch.
	ladderPage = 16
	// facadeRuns is how many queries the facade and service rungs average.
	facadeRuns = 200
)

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink float64

// accessor is the script's view of a layer: the next sorted access on a
// predicate, and a probe.
type accessor interface {
	sorted(ctx context.Context, pred int) error
	random(ctx context.Context, pred, obj int) error
}

// rawAccessor drives an access.Backend directly, keeping its own ranks.
type rawAccessor struct {
	b     access.Backend
	ranks [ladderM]int
}

func (a *rawAccessor) sorted(ctx context.Context, pred int) error {
	//topklint:allow billedaccess the ladder times each layer's raw backend calls; no query is billed
	_, s, err := a.b.Sorted(ctx, pred, a.ranks[pred])
	a.ranks[pred]++
	sink += s
	return err
}

func (a *rawAccessor) random(ctx context.Context, pred, obj int) error {
	//topklint:allow billedaccess the ladder times each layer's raw backend calls; no query is billed
	s, err := a.b.Random(ctx, pred, obj)
	sink += s
	return err
}

// sessionAccessor drives the ledgered session API.
type sessionAccessor struct{ s *access.Session }

func (a sessionAccessor) sorted(_ context.Context, pred int) error {
	_, s, err := a.s.SortedNext(pred)
	sink += s
	return err
}

func (a sessionAccessor) random(_ context.Context, pred, obj int) error {
	s, err := a.s.Random(pred, obj)
	sink += s
	return err
}

// batchBackend is the batched-probe capability of the store, the websim
// client and the coordinator.
type batchBackend interface {
	BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error)
}

type ladder struct {
	tr     *tracer
	root   int
	ds     *data.Dataset
	probes [][2]int // (pred, obj)
	scn    access.Scenario
	values map[string]float64
}

// timed runs fn inside a span under parent and returns nanoseconds and heap
// allocations per unit of work.
func (l *ladder) timed(name string, parent, units int, fn func() error) (ns, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := l.tr.begin(name, "ladder", parent)
	start := time.Now()
	err = fn()
	took := time.Since(start)
	l.tr.finish(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, fmt.Errorf("ladder %s: %w", name, err)
	}
	return float64(took) / float64(units), float64(after.Mallocs-before.Mallocs) / float64(units), nil
}

// rung opens the parent span of a group of timed batches; call done when
// the group is over.
func (l *ladder) rung(name string) (id int, done func()) {
	id = l.tr.begin(name, "ladder", l.root)
	return id, func() { l.tr.finish(id) }
}

func (l *ladder) sortedPhase(ctx context.Context, name string, parent int, a accessor) (ns, allocs float64, err error) {
	return l.timed(name+".sorted", parent, ladderSorted, func() error {
		for i := 0; i < ladderSorted; i++ {
			if err := a.sorted(ctx, i%ladderM); err != nil {
				return err
			}
		}
		return nil
	})
}

func (l *ladder) randomPhase(ctx context.Context, name string, parent int, a accessor) (ns, allocs float64, err error) {
	return l.timed(name+".random", parent, ladderProbes, func() error {
		for _, p := range l.probes {
			if err := a.random(ctx, p[0], p[1]); err != nil {
				return err
			}
		}
		return nil
	})
}

// replay runs the whole script and stores <name>_sorted_ns, <name>_random_ns
// and, when withAllocs, <name>_allocs_per_access.
func (l *ladder) replay(ctx context.Context, name string, a accessor, withAllocs bool) error {
	id, done := l.rung(name)
	defer done()
	sNs, sAllocs, err := l.sortedPhase(ctx, name, id, a)
	if err != nil {
		return err
	}
	rNs, rAllocs, err := l.randomPhase(ctx, name, id, a)
	if err != nil {
		return err
	}
	l.values[name+"_sorted_ns"] = sNs
	l.values[name+"_random_ns"] = rNs
	if withAllocs {
		l.values[name+"_allocs_per_access"] = (sAllocs*ladderSorted + rAllocs*ladderProbes) / (ladderSorted + ladderProbes)
	}
	return nil
}

// batchPhase probes the script's objects ladderPage at a time.
func (l *ladder) batchPhase(ctx context.Context, name string, parent int, b batchBackend) (float64, error) {
	ns, _, err := l.timed(name, parent, ladderProbes, func() error {
		preds, objs := make([]int, 0, ladderPage), make([]int, 0, ladderPage)
		for i, p := range l.probes {
			preds, objs = append(preds, p[0]), append(objs, p[1])
			if len(preds) == ladderPage || i == len(l.probes)-1 {
				//topklint:allow billedaccess the ladder times each layer's raw backend calls; no query is billed
				scores, err := b.BatchRandom(ctx, preds, objs)
				if err != nil {
					return err
				}
				sink += scores[0]
				preds, objs = preds[:0], objs[:0]
			}
		}
		return nil
	})
	return ns, err
}

// ladderReps is how many times the whole ladder runs; each rung is a few
// milliseconds of work, so a single replay is at the mercy of the scheduler.
const ladderReps = 3

// runLadder replays the script against every layer ladderReps times and
// returns the per-metric medians: the (b) per-layer metrics. Spans of every
// replay go to tr.
func runLadder(ctx context.Context, tr *tracer) (map[string]float64, error) {
	ds, err := data.Generate(data.Zipf, ladderN, ladderM, datasetSeed)
	if err != nil {
		return nil, err
	}
	// Probe p2 of the first ladderProbes objects of p1's list: the sorted
	// phase has seen them all, so the probes are legal under no-wild-guesses.
	probes := make([][2]int, ladderProbes)
	for r := range probes {
		obj, _ := ds.SortedAt(0, r)
		probes[r] = [2]int{1, obj}
	}
	reps := map[string][]float64{}
	for rep := 0; rep < ladderReps; rep++ {
		l := &ladder{tr: tr, ds: ds, probes: probes, scn: access.Uniform(ladderM, 1, 1), values: map[string]float64{}}
		l.root = tr.begin("ladder", "ladder", -1)
		for _, rung := range []func(context.Context) error{
			l.dataRung, l.accessRungs, l.guardRung, l.shareRungs, l.clusterRungs, l.websimRung,
			l.storeRungs, l.algoRung, l.optRungs, l.sqlqRung, l.facadeRungs, l.serviceRungs,
		} {
			if err := rung(ctx); err != nil {
				return nil, err
			}
		}
		tr.finish(l.root)
		for name, v := range l.values {
			reps[name] = append(reps[name], v)
		}
	}
	values := make(map[string]float64, len(reps))
	for name, vs := range reps {
		values[name] = median(vs)
	}
	return values, nil
}

func (l *ladder) dataRung(context.Context) error {
	id, done := l.rung("data")
	defer done()
	var err error
	if l.values["data.sorted_ns"], _, err = l.timed("data.sorted", id, ladderSorted, func() error {
		for i := 0; i < ladderSorted; i++ {
			_, s := l.ds.SortedAt(i%ladderM, i/ladderM)
			sink += s
		}
		return nil
	}); err != nil {
		return err
	}
	if l.values["data.random_ns"], _, err = l.timed("data.random", id, ladderProbes, func() error {
		for _, p := range l.probes {
			sink += l.ds.Score(p[1], p[0])
		}
		return nil
	}); err != nil {
		return err
	}
	ns, _, err := l.timed("data.project", id, 1, func() error {
		p, err := data.Project(l.ds, []int{0, 1})
		if err == nil {
			sink += p.Score(0, 0)
		}
		return err
	})
	l.values["data.project_ms"] = ns / 1e6
	return err
}

func (l *ladder) accessRungs(ctx context.Context) error {
	plain, err := access.NewSession(access.DatasetBackend{DS: l.ds}, l.scn)
	if err != nil {
		return err
	}
	if err := l.replay(ctx, "access.session", sessionAccessor{plain}, true); err != nil {
		return err
	}
	// The served configuration: breakers, a 5 s access timeout, a context.
	res := &access.Resilience{Breakers: access.NewBreakerSet(ladderM, access.BreakerConfig{}), AccessTimeout: 5 * time.Second}
	served, err := access.NewSession(access.DatasetBackend{DS: l.ds}, l.scn, access.WithResilience(res), access.WithContext(ctx))
	if err != nil {
		return err
	}
	return l.replay(ctx, "access.resilient", sessionAccessor{served}, true)
}

func (l *ladder) guardRung(ctx context.Context) error {
	return l.replay(ctx, "adapt.guard", &rawAccessor{b: adapt.NewGuard(access.DatasetBackend{DS: l.ds})}, false)
}

func (l *ladder) shareRungs(ctx context.Context) error {
	layer := share.New(access.DatasetBackend{DS: l.ds}, share.Options{})
	if err := l.replay(ctx, "share.miss", &rawAccessor{b: layer}, false); err != nil {
		return err
	}
	return l.replay(ctx, "share.hit", &rawAccessor{b: layer}, false)
}

func (l *ladder) clusterRungs(ctx context.Context) error {
	parts, err := cluster.Partition(l.ds, clusterShards)
	if err != nil {
		return err
	}
	local := make([]cluster.Shard, len(parts))
	remote := make([]cluster.Shard, len(parts))
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer httpc.CloseIdleConnections()
	for i, sd := range parts {
		local[i] = cluster.NewLocalShard(sd)
		srv, err := websim.NewServer(sd.Local, websim.WithShardObjects(sd.Global, l.ds.N()))
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if remote[i], err = cluster.DialShard(ctx, ts.URL, ladderM, httpc); err != nil {
			return err
		}
	}
	lc, err := cluster.New(local, cluster.Options{})
	if err != nil {
		return err
	}
	if err := l.replay(ctx, "cluster.local", &rawAccessor{b: lc}, false); err != nil {
		return err
	}
	rc, err := cluster.New(remote, cluster.Options{})
	if err != nil {
		return err
	}
	id, done := l.rung("cluster.remote")
	defer done()
	// Cold: every page is a shard round trip. Warm: the merged prefix the
	// cold replay left behind serves the same ranks.
	for _, temp := range []string{"cold", "warm"} {
		ns, _, err := l.sortedPhase(ctx, "cluster.remote."+temp, id, &rawAccessor{b: rc})
		if err != nil {
			return err
		}
		l.values["cluster.remote_sorted_"+temp+"_ns"] = ns
	}
	if l.values["cluster.remote_random_ns"], _, err = l.randomPhase(ctx, "cluster.remote", id, &rawAccessor{b: rc}); err != nil {
		return err
	}
	l.values["cluster.remote_batch_random_ns"], err = l.batchPhase(ctx, "cluster.remote.batch_random", id, rc)
	return err
}

func (l *ladder) websimRung(ctx context.Context) error {
	srv, err := websim.NewServer(l.ds)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer httpc.CloseIdleConnections()
	routes := make([]websim.Route, ladderM)
	for i := range routes {
		routes[i] = websim.Route{BaseURL: ts.URL, Pred: i}
	}
	c, err := websim.NewClient(ctx, httpc, routes)
	if err != nil {
		return err
	}
	id, done := l.rung("websim")
	defer done()
	if l.values["websim.sorted_page_ns_per_entry"], _, err = l.timed("websim.sorted_page", id, ladderSorted, func() error {
		var ranks [ladderM]int
		for got, page := 0, 0; got < ladderSorted; page++ {
			pred := page % ladderM
			entries, err := c.SortedPage(ctx, pred, ranks[pred], ladderPage)
			if err != nil {
				return err
			}
			ranks[pred] += len(entries)
			got += len(entries)
			sink += entries[0].Score
		}
		return nil
	}); err != nil {
		return err
	}
	if l.values["websim.random_ns"], _, err = l.randomPhase(ctx, "websim", id, &rawAccessor{b: c}); err != nil {
		return err
	}
	l.values["websim.batch_random_ns"], err = l.batchPhase(ctx, "websim.batch_random", id, c)
	return err
}

func (l *ladder) storeRungs(ctx context.Context) error {
	dir, err := os.MkdirTemp(outDir, "ladder-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	id, done := l.rung("store")
	defer done()
	ns, _, err := l.timed("store.build", id, 1, func() error { return store.WriteDataset(dir, l.ds, store.WriterOptions{}) })
	if err != nil {
		return err
	}
	l.values["store.build_s"] = ns / 1e9
	var bytes int64
	if err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		bytes += info.Size()
		return err
	}); err != nil {
		return err
	}
	l.values["store.bytes_per_score"] = float64(bytes) / (ladderN * ladderM)

	var st *store.Store
	if ns, _, err = l.timed("store.open", id, 1, func() error {
		st, err = store.Open(dir, store.Options{})
		return err
	}); err != nil {
		return err
	}
	defer st.Close()
	l.values["store.open_ms"] = ns / 1e6
	// Cold: the block cache is empty. Cached: the same ranks again, now
	// served from the default 64-block cache.
	for _, temp := range []string{"cold", "cached"} {
		if l.values["store.sorted_"+temp+"_ns"], _, err = l.sortedPhase(ctx, "store."+temp, id, &rawAccessor{b: st}); err != nil {
			return err
		}
	}
	stats := st.Stats()
	l.values["store.block_hit_ratio"] = float64(stats.BlockHits) / float64(stats.SortedReads)
	if l.values["store.random_ns"], _, err = l.randomPhase(ctx, "store", id, &rawAccessor{b: st}); err != nil {
		return err
	}
	if l.values["store.batch_random_ns"], err = l.batchPhase(ctx, "store.batch_random", id, st); err != nil {
		return err
	}
	cal, err := store.Measure(ctx, st, store.MeasureOptions{Seed: 1})
	if err != nil {
		return err
	}
	l.values["store.calibrated_cs_ns"] = cal.SortedMS * 1e6
	l.values["store.calibrated_cr_ns"] = cal.RandomMS * 1e6

	// Thrash: four cached blocks under a script that walks six, so a warm
	// replay still re-reads every block it returns to.
	small, err := store.Open(dir, store.Options{CacheBlocks: 4})
	if err != nil {
		return err
	}
	defer small.Close()
	for range 2 {
		if l.values["store.sorted_thrash_ns"], _, err = l.sortedPhase(ctx, "store.thrash", id, &rawAccessor{b: small}); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) algoRung(context.Context) error {
	sess, err := access.NewSession(access.DatasetBackend{DS: l.ds}, l.scn)
	if err != nil {
		return err
	}
	sel, err := algo.NewSRG([]float64{0.5, 0.5, 0.5}, nil)
	if err != nil {
		return err
	}
	p, err := algo.NewProblem(score.Min(), 10, sess)
	if err != nil {
		return err
	}
	id, done := l.rung("algo")
	defer done()
	var res *algo.Result
	ns, allocs, err := l.timed("algo.nc", id, 1, func() error {
		res, err = (&algo.NC{Sel: sel}).Run(p)
		return err
	})
	if err != nil {
		return err
	}
	l.values["algo.nc_ns_per_access"] = ns / float64(res.Ledger.TotalAccesses())
	l.values["algo.nc_allocs_per_query"] = allocs
	return nil
}

func (l *ladder) optRungs(context.Context) error {
	id, done := l.rung("opt")
	defer done()
	ns, allocs, err := l.timed("opt.optimize", id, 1, func() error {
		plan, err := opt.Optimize(opt.Config{Seed: 1}, l.scn, score.Avg(), 10, ladderN)
		sink += plan.H[0]
		return err
	})
	if err != nil {
		return err
	}
	l.values["opt.optimize_cold_ms"] = ns / 1e6
	l.values["opt.optimize_allocs"] = allocs
	cache := opt.NewPlanCache(0)
	if _, err := cache.Get(opt.Config{Seed: 1}, l.scn, score.Avg(), 10, ladderN); err != nil {
		return err
	}
	l.values["opt.plan_cache_hit_ns"], _, err = l.timed("opt.plan_cache_hit", id, facadeRuns, func() error {
		for range facadeRuns {
			plan, err := cache.Get(opt.Config{Seed: 1}, l.scn, score.Avg(), 10, ladderN)
			if err != nil {
				return err
			}
			sink += plan.H[0]
		}
		return nil
	})
	return err
}

func (l *ladder) sqlqRung(context.Context) error {
	id, done := l.rung("sqlq")
	defer done()
	cols := []string{"p1", "p2", "p3"}
	sql := shape{fn: "avg", cols: p23, k: 10}.sql()
	var err error
	l.values["sqlq.parse_bind_ns"], l.values["sqlq.parse_bind_allocs"], err = l.timed("sqlq.parse_bind", id, facadeRuns, func() error {
		for range facadeRuns {
			q, err := sqlq.Parse(sql)
			if err != nil {
				return err
			}
			bound, err := sqlq.Bind(q, cols)
			if err != nil {
				return err
			}
			sink += float64(bound[0])
		}
		return nil
	})
	return err
}

// facadeRungs time the topk facade on mem_point's deployment (uniform
// n=1000 m=3): one long-lived engine the BENCH_perf way, an engine per
// query the service way, and a three-page cursor.
func (l *ladder) facadeRungs(context.Context) error {
	ds, err := topk.GenerateDataset("uniform", 1000, 3, datasetSeed)
	if err != nil {
		return err
	}
	scn := topk.UniformScenario(3, 1, 1)
	plans := topk.NewPlanCache(0)
	q := topk.Query{F: topk.Min(), K: 10}
	newEngine := func() (*topk.Engine, error) {
		return topk.NewEngine(topk.DataBackend(ds), scn, topk.WithPlanCache(plans))
	}
	warm, err := newEngine()
	if err != nil {
		return err
	}
	if _, err := warm.Run(q); err != nil { // fills the plan cache and the engine's pool
		return err
	}
	id, done := l.rung("topk")
	defer done()
	perRun := func(name string, one func() error) (us, allocs float64, err error) {
		ns, allocs, err := l.timed(name, id, facadeRuns, func() error {
			for range facadeRuns {
				if err := one(); err != nil {
					return err
				}
			}
			return nil
		})
		return ns / 1e3, allocs, err
	}
	run := func(e *topk.Engine, opts ...topk.RunOption) error {
		ans, err := e.Run(q, opts...)
		if err == nil {
			sink += ans.Items[0].Score
		}
		return err
	}
	if l.values["topk.run_warm_us"], l.values["topk.run_warm_allocs"], err = perRun("topk.run_warm", func() error { return run(warm) }); err != nil {
		return err
	}
	if l.values["topk.run_cold_us"], l.values["topk.run_cold_allocs"], err = perRun("topk.run_cold", func() error {
		e, err := newEngine()
		if err != nil {
			return err
		}
		return run(e)
	}); err != nil {
		return err
	}
	if l.values["topk.open_next_close_us"], _, err = perRun("topk.open_next_close", func() error {
		cur, err := warm.Open(q)
		if err != nil {
			return err
		}
		for range sessionPages {
			if _, err := cur.Next(sessionK); err != nil {
				return err
			}
		}
		return cur.Close()
	}); err != nil {
		return err
	}
	// The same warm run without and with the service's metrics observer,
	// back to back so both see the same machine.
	plain, _, err := perRun("obs.plain", func() error { return run(warm) })
	if err != nil {
		return err
	}
	observer := obs.NewMetrics(obs.NewRegistry())
	observed, _, err := perRun("obs.metrics", func() error { return run(warm, topk.WithObserver(observer)) })
	if err != nil {
		return err
	}
	l.values["obs.metrics_overhead_ratio"] = observed / plain
	return nil
}

// serviceRungs time ServeHTTP into a recorder, without TCP: an identity
// projection and a (p1, p2) one that makes prepare project the dataset.
func (l *ladder) serviceRungs(context.Context) error {
	ds, err := topk.GenerateDataset("uniform", 1000, 3, datasetSeed)
	if err != nil {
		return err
	}
	h, err := service.NewHandler(service.Config{Dataset: ds, Columns: []string{"p1", "p2", "p3"}, Scenario: topk.UniformScenario(3, 1, 1)})
	if err != nil {
		return err
	}
	id, done := l.rung("service")
	defer done()
	serve := func(name string, s shape) (us, allocs float64, err error) {
		body := fmt.Sprintf(`{"sql":%q}`, s.sql())
		one := func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body)
			}
			return nil
		}
		if err := one(); err != nil { // plan-cache fill
			return 0, 0, err
		}
		ns, allocs, err := l.timed(name, id, facadeRuns, func() error {
			for range facadeRuns {
				if err := one(); err != nil {
					return err
				}
			}
			return nil
		})
		return ns / 1e3, allocs, err
	}
	if l.values["service.handler_us"], l.values["service.handler_allocs"], err = serve("service.handler", shape{fn: "min", cols: all3, k: 10}); err != nil {
		return err
	}
	l.values["service.handler_projected_us"], _, err = serve("service.handler_projected", shape{fn: "min", cols: p12, k: 10})
	return err
}
