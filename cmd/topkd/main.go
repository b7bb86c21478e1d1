// Command topkd runs the top-k middleware as an HTTP service: one database
// (a travel benchmark, a synthetic dataset, or a JSON file) under one cost
// scenario, answering SQL-like top-k queries over POST /query.
//
// Usage:
//
//	topkd -bench q1 -addr :8080
//	topkd -dist skewed -n 5000 -m 3 -cs 1 -cr 10
//	topkd -data db.json -scenario costs.json
//
// Query it with:
//
//	curl -s localhost:8080/meta
//	curl -s -X POST localhost:8080/query -d '{"sql":
//	  "select name from db order by min(rating, closeness) stop after 5"}'
//
// The same binary also runs as one node of a shard cluster. A shard node
// serves its consistent-hash slice of the database over the websim source
// protocol: it reads the database its flags name row by row and keeps only
// the rows the ring assigns it, so nodes given identical database flags
// hold disjoint slices whose union is the database. A coordinator node
// fronts the shard nodes as one scatter-gather database behind the
// ordinary query API:
//
//	topkd -dist skewed -n 100000 -shards 3 -shard 0 -addr :9090
//	topkd -dist skewed -n 100000 -shards 3 -shard 1 -addr :9091
//	topkd -dist skewed -n 100000 -shards 3 -shard 2 -addr :9092
//	topkd -coordinator http://127.0.0.1:9090,http://127.0.0.1:9091,http://127.0.0.1:9092 \
//	      -m 2 -addr :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	topk "repro"
	"repro/internal/access"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/websim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "topkd:", err)
		os.Exit(1)
	}
}

// config is topkd's command line.
type config struct {
	addr, benchQ, dist, dataFile, storeDir, scnFile string
	n, m                                            int
	seed                                            int64
	coldCal, pprofOn                                bool
	cs, cr                                          float64
	slowQ                                           time.Duration

	queryTimeout, accessTimeout, brkCooldown time.Duration
	maxInflight, brkThreshold                int

	cursorTTL  time.Duration
	maxCursors int

	shareOn  bool
	shareCap int

	adaptive int
	guardOn  bool

	shardIdx, shardCount int
	coordinator          string
}

// parseFlags reads topkd's command line and refuses a contradictory role
// before anything is opened, dialed or generated.
func parseFlags(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("topkd", flag.ExitOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&c.benchQ, "bench", "", "serve a travel benchmark: q1 (restaurants) or q2 (hotels)")
	fs.StringVar(&c.dist, "dist", "", "serve a synthetic dataset from this distribution")
	fs.IntVar(&c.n, "n", 1000, "synthetic dataset size")
	fs.IntVar(&c.m, "m", 2, "synthetic predicate count")
	fs.Int64Var(&c.seed, "seed", 1, "synthetic dataset seed")
	fs.StringVar(&c.dataFile, "data", "", "serve a dataset from this JSON file")
	fs.StringVar(&c.storeDir, "store", "", "serve a disk store directory (built with topk.BuildStore or the topkbench -store workload)")
	fs.BoolVar(&c.coldCal, "calibrate-cold", false, "calibrate the store with caches dropped between batches (cold mode; needs -store and no -scenario)")
	fs.StringVar(&c.scnFile, "scenario", "", "load the cost scenario from this JSON file")
	fs.Float64Var(&c.cs, "cs", 1, "sorted access unit cost (without -scenario; ignored with -store, which prices accesses from timed IO)")
	fs.Float64Var(&c.cr, "cr", 1, "random access unit cost (without -scenario)")
	fs.DurationVar(&c.slowQ, "slow-query", 500*time.Millisecond, "log queries slower than this (0 disables)")
	fs.BoolVar(&c.pprofOn, "pprof", true, "serve runtime profiles under /debug/pprof/")

	fs.DurationVar(&c.queryTimeout, "query-timeout", 30*time.Second, "per-query deadline; timed-out queries return a degraded answer (negative disables)")
	fs.IntVar(&c.maxInflight, "max-inflight", 0, "shed queries beyond this many concurrently executing (0 = unlimited)")
	fs.DurationVar(&c.accessTimeout, "access-timeout", 5*time.Second, "per-access deadline inside a query (negative disables)")
	fs.IntVar(&c.brkThreshold, "breaker-threshold", 3, "consecutive access failures that open a capability's circuit")
	fs.DurationVar(&c.brkCooldown, "breaker-cooldown", time.Second, "how long an open circuit waits before probing the source again")

	fs.DurationVar(&c.cursorTTL, "cursor-ttl", time.Minute, "reclaim server-side query cursors idle this long (negative disables expiry)")
	fs.IntVar(&c.maxCursors, "max-cursors", 128, "open server-side cursors beyond this return 503 (negative = unlimited)")

	fs.BoolVar(&c.shareOn, "share", false, "share accesses across concurrent queries: shared sorted cursors and a score cache (topk_share_* in /metrics)")
	fs.IntVar(&c.shareCap, "share-cache", 0, "shared score cache capacity in entries (0 = default, negative disables score caching)")

	fs.IntVar(&c.adaptive, "adaptive", 0, "re-plan queries mid-flight when sources diverge from the plan's statistics, checkpointing every this many accesses (0 disables)")
	fs.BoolVar(&c.guardOn, "contract-guard", false, "vet every source response against the access contract; lying sources are quarantined via the circuit breakers (topk_contract_violations_total in /metrics)")

	fs.IntVar(&c.shardIdx, "shard", -1, "serve one shard of the database for a -coordinator to dial (shard wire on /wire, websim JSON beside it): this node's index in [0,-shards)")
	fs.IntVar(&c.shardCount, "shards", 0, "total shard count for -shard mode (every node must build the database from identical flags)")
	fs.StringVar(&c.coordinator, "coordinator", "", "comma-separated shard base URLs: front them as one scatter-gather database (-m sets the predicate count; no local database flags apply)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if c.shard() {
		switch {
		case c.coordinator != "":
			return nil, fmt.Errorf("-shard/-shards and -coordinator are different roles; pick one")
		case c.storeDir != "":
			return nil, fmt.Errorf("-shard mode serves an in-memory dataset; it cannot front -store")
		case c.shardCount < 1:
			return nil, fmt.Errorf("-shard requires -shards >= 1")
		case c.shardIdx < 0 || c.shardIdx >= c.shardCount:
			return nil, fmt.Errorf("-shard index %d outside [0,%d)", c.shardIdx, c.shardCount)
		}
	}
	if c.coldCal {
		switch {
		case c.storeDir == "":
			return nil, fmt.Errorf("-calibrate-cold times the IO of a -store; there is none")
		case c.scnFile != "":
			return nil, fmt.Errorf("-calibrate-cold prices a -store, but -scenario pins the prices; pick one")
		}
	}
	return c, nil
}

// shard reports whether the flags ask for a shard node.
func (c *config) shard() bool { return c.shardCount > 0 || c.shardIdx >= 0 }

// synthetic reports whether the flags' database is a -dist dataset: one a
// shard node draws row by row rather than loading whole. -data and -bench
// take precedence over -dist.
func (c *config) synthetic() bool {
	return c.dataFile == "" && c.benchQ != "q1" && c.benchQ != "q2" && c.dist != ""
}

func run(args []string) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	if c.shard() {
		srv, err := buildShard(c)
		if err != nil {
			return err
		}
		return http.ListenAndServe(c.addr, srv)
	}
	h, closeDB, err := newHandler(c)
	if err != nil {
		return err
	}
	defer closeDB()
	return http.ListenAndServe(c.addr, h)
}

// newHandler builds the service a single node or a coordinator serves.
// closeDB releases the disk store a -store node opened.
func newHandler(c *config) (h *service.Handler, closeDB func(), err error) {
	var (
		ds      *data.Dataset
		coord   *cluster.Coordinator
		st      *topk.Store
		columns []string
		// reg backs /metrics. It exists before the database does so that a
		// coordinator's shard wires report their retries into it.
		reg = obs.NewRegistry()
	)
	closeDB = func() {}
	if c.coordinator != "" {
		coord, err = dialCluster(c.coordinator, c.m, reg)
		if err != nil {
			return nil, nil, err
		}
		columns = genericColumns(c.m)
	} else if c.storeDir != "" {
		st, err = topk.OpenStore(c.storeDir, topk.StoreOptions{})
		if err != nil {
			return nil, nil, err
		}
		defer func() {
			if err != nil {
				st.Close()
			}
		}()
		columns = genericColumns(st.M())
	} else {
		ds, columns, err = loadDataset(c)
		if err != nil {
			return nil, nil, err
		}
	}

	var scn access.Scenario
	switch {
	case c.scnFile != "":
		f, err := os.Open(c.scnFile)
		if err != nil {
			return nil, nil, err
		}
		scn, err = access.ReadScenarioJSON(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
	case st != nil:
		// Price the scenario from the store's own physics: timed IO at
		// startup, quantized so repeated boots of unchanged hardware price
		// accesses, and so key cached plans, identically.
		calCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cal, err := topk.MeasureStore(calCtx, st, topk.StoreMeasureOptions{Cold: c.coldCal})
		cancel()
		if err != nil {
			return nil, nil, fmt.Errorf("calibrating %s: %w", c.storeDir, err)
		}
		log.Printf("topkd: calibrated %s: %s (cr/cs %.1fx)", st.Name(), cal.Key(), cal.Ratio())
		scn = topk.CalibratedScenario(st.M(), cal)
	default:
		scn = access.Uniform(len(columns), c.cs, c.cr)
	}

	var health topk.Backend
	switch {
	case coord != nil:
		health = coord
	case st != nil:
		health = st
	default:
		health = topk.DataBackend(ds)
	}
	h, err = service.NewHandler(service.Config{
		Dataset:            ds,
		Cluster:            coord,
		Store:              st,
		Columns:            columns,
		Scenario:           scn,
		Metrics:            reg,
		SlowQueryThreshold: c.slowQ,
		EnablePprof:        c.pprofOn,
		HealthBackend:      health,
		QueryTimeout:       c.queryTimeout,
		MaxInflight:        c.maxInflight,
		AccessTimeout:      c.accessTimeout,
		Breaker:            topk.BreakerConfig{FailureThreshold: c.brkThreshold, Cooldown: c.brkCooldown},
		EnableSharing:      c.shareOn,
		ShareScoreCapacity: c.shareCap,
		AdaptivePeriod:     c.adaptive,
		ContractGuard:      c.guardOn,
		CursorTTL:          c.cursorTTL,
		MaxCursors:         c.maxCursors,
	})
	if err != nil {
		return nil, nil, err
	}
	if coord != nil {
		log.Printf("topkd: coordinating %d shards (%d objects, predicates %v) under scenario %q on %s (metrics on /metrics, share=%v)",
			coord.Shards(), coord.N(), columns, scn.Name, c.addr, c.shareOn)
	} else if st != nil {
		closeDB = func() { st.Close() }
		log.Printf("topkd: serving disk store %s (%d objects, predicates %v) under scenario %q on %s (metrics on /metrics, pprof=%v, share=%v)",
			st.Name(), st.N(), columns, scn.Name, c.addr, c.pprofOn, c.shareOn)
	} else {
		log.Printf("topkd: serving %s (%d objects, predicates %v) under scenario %q on %s (metrics on /metrics, pprof=%v, share=%v)",
			ds.Name(), ds.N(), columns, scn.Name, c.addr, c.pprofOn, c.shareOn)
	}
	return h, closeDB, nil
}

// loadDataset builds the whole in-memory database the flags name, with
// its column names.
func loadDataset(c *config) (*data.Dataset, []string, error) {
	switch {
	case c.synthetic():
		d, err := data.DistributionByName(c.dist)
		if err != nil {
			return nil, nil, err
		}
		ds, err := data.Generate(d, c.n, c.m, c.seed)
		if err != nil {
			return nil, nil, err
		}
		return ds, genericColumns(ds.M()), nil
	case c.dataFile != "":
		f, err := os.Open(c.dataFile)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		ds, err := data.ReadJSON(f)
		if err != nil {
			return nil, nil, err
		}
		return ds, genericColumns(ds.M()), nil
	case c.benchQ == "q1":
		q, _, err := data.Restaurants(c.n, c.seed)
		if err != nil {
			return nil, nil, err
		}
		return q.Dataset, q.PredicateNames, nil
	case c.benchQ == "q2":
		q, _, err := data.Hotels(c.n, c.seed)
		if err != nil {
			return nil, nil, err
		}
		return q.Dataset, q.PredicateNames, nil
	default:
		return nil, nil, fmt.Errorf("choose a database: -bench, -dist, or -data")
	}
}

// dialCluster connects to every shard node in the comma-separated URL
// list and fronts them with a scatter-gather coordinator. Every wire's
// retries and terminal failures land on reg (topk_source_*).
func dialCluster(urls string, m int, reg *obs.Registry) (*cluster.Coordinator, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wireObs := websim.WithObserver(obs.NewMetrics(reg))
	var shards []cluster.Shard
	for _, u := range strings.Split(urls, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		rs, err := cluster.DialShard(ctx, u, m, http.DefaultClient, wireObs)
		if err != nil {
			return nil, fmt.Errorf("dialing shard %s: %w", u, err)
		}
		shards = append(shards, rs)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("-coordinator lists no shard URLs")
	}
	return cluster.New(shards, cluster.Options{})
}

// buildShard builds this node's slice of the database for a coordinator to
// dial, served as the shard wire on /wire with the websim JSON protocol
// beside it. Consistent hashing is deterministic in the shard count, so
// peers built from identical database flags hold disjoint slices. The
// node holds only its slice — its rows, their sorted lists and their
// ascending global ids, which the server searches to resolve a probe — and
// nothing sized by n: a -dist database is drawn row by row and never
// materialized; a -bench or -data one is loaded, and dropped once sliced.
func buildShard(c *config) (*websim.Server, error) {
	ring, err := cluster.NewRing(c.shardCount)
	if err != nil {
		return nil, err
	}
	var (
		name string
		n, m int
		rows cluster.Rows
	)
	if c.synthetic() {
		d, err := data.DistributionByName(c.dist)
		if err != nil {
			return nil, err
		}
		name, n, m = data.GeneratedName(d, c.n, c.m, c.seed), c.n, c.m
		rows = func(emit func(int, []float64) error) error { return data.Stream(d, n, m, c.seed, emit) }
	} else {
		ds, _, err := loadDataset(c)
		if err != nil {
			return nil, err
		}
		name, n, m, rows = ds.Name(), ds.N(), ds.M(), cluster.DatasetRows(ds)
	}
	sd, err := cluster.Slice(ring, c.shardIdx, name, n, m, rows)
	if err != nil {
		return nil, err
	}
	if sd.LocalN() == 0 {
		return nil, fmt.Errorf("shard %d of %d owns no objects of %s; use fewer shards", c.shardIdx, c.shardCount, name)
	}
	// Refused frames are logged with the frame id the coordinator chose, so
	// its error line for an access can be matched to this node's.
	srv, err := websim.NewServer(sd.Local, websim.WithShardObjects(sd.Global, n), websim.WithLogf(log.Printf))
	if err != nil {
		return nil, err
	}
	log.Printf("topkd: serving shard %d/%d of %s (%d of %d objects) on %s",
		c.shardIdx, c.shardCount, name, sd.LocalN(), n, c.addr)
	return srv, nil
}

func genericColumns(m int) []string {
	cols := make([]string, m)
	for i := range cols {
		cols[i] = fmt.Sprintf("p%d", i+1)
	}
	return cols
}
