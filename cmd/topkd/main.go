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
// protocol (deterministic: every node partitions the same dataset flags
// the same way); a coordinator node fronts the shard nodes as one
// scatter-gather database behind the ordinary query API:
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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "topkd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		benchQ   = flag.String("bench", "", "serve a travel benchmark: q1 (restaurants) or q2 (hotels)")
		dist     = flag.String("dist", "", "serve a synthetic dataset from this distribution")
		n        = flag.Int("n", 1000, "synthetic dataset size")
		m        = flag.Int("m", 2, "synthetic predicate count")
		seed     = flag.Int64("seed", 1, "synthetic dataset seed")
		dataFile = flag.String("data", "", "serve a dataset from this JSON file")
		storeDir = flag.String("store", "", "serve a disk store directory (built with topk.BuildStore or the topkbench -store workload)")
		coldCal  = flag.Bool("calibrate-cold", false, "calibrate the store with caches dropped between batches (cold mode)")
		scnFile  = flag.String("scenario", "", "load the cost scenario from this JSON file")
		cs       = flag.Float64("cs", 1, "sorted access unit cost (without -scenario; ignored with -store, which prices accesses from timed IO)")
		cr       = flag.Float64("cr", 1, "random access unit cost (without -scenario)")
		slowQ    = flag.Duration("slow-query", 500*time.Millisecond, "log queries slower than this (0 disables)")
		pprofOn  = flag.Bool("pprof", true, "serve runtime profiles under /debug/pprof/")

		queryTimeout  = flag.Duration("query-timeout", 30*time.Second, "per-query deadline; timed-out queries return a degraded answer (negative disables)")
		maxInflight   = flag.Int("max-inflight", 0, "shed queries beyond this many concurrently executing (0 = unlimited)")
		accessTimeout = flag.Duration("access-timeout", 5*time.Second, "per-access deadline inside a query (negative disables)")
		brkThreshold  = flag.Int("breaker-threshold", 3, "consecutive access failures that open a capability's circuit")
		brkCooldown   = flag.Duration("breaker-cooldown", time.Second, "how long an open circuit waits before probing the source again")

		cursorTTL  = flag.Duration("cursor-ttl", time.Minute, "reclaim server-side query cursors idle this long (negative disables expiry)")
		maxCursors = flag.Int("max-cursors", 128, "open server-side cursors beyond this return 503 (negative = unlimited)")

		shareOn  = flag.Bool("share", false, "share accesses across concurrent queries: shared sorted cursors and a score cache (topk_share_* in /metrics)")
		shareCap = flag.Int("share-cache", 0, "shared score cache capacity in entries (0 = default, negative disables score caching)")

		adaptive = flag.Int("adaptive", 0, "re-plan queries mid-flight when sources diverge from the plan's statistics, checkpointing every this many accesses (0 disables)")
		guardOn  = flag.Bool("contract-guard", false, "vet every source response against the access contract; lying sources are quarantined via the circuit breakers (topk_contract_violations_total in /metrics)")

		shardIdx    = flag.Int("shard", -1, "serve one shard of the database for a -coordinator to dial (shard wire on /wire, websim JSON beside it): this node's index in [0,-shards)")
		shardCount  = flag.Int("shards", 0, "total shard count for -shard mode (every node must build the database from identical flags)")
		coordinator = flag.String("coordinator", "", "comma-separated shard base URLs: front them as one scatter-gather database (-m sets the predicate count; no local database flags apply)")
	)
	flag.Parse()

	var (
		ds      *data.Dataset
		coord   *cluster.Coordinator
		st      *topk.Store
		cal     topk.StoreCalibration
		columns []string
		err     error
		// reg backs /metrics. It exists before the database does so that a
		// coordinator's shard wires report their retries into it.
		reg = obs.NewRegistry()
	)
	if *coordinator != "" {
		coord, err = dialCluster(*coordinator, *m, reg)
		if err != nil {
			return err
		}
		columns = genericColumns(*m)
	} else if *storeDir != "" {
		st, err = topk.OpenStore(*storeDir, topk.StoreOptions{})
		if err != nil {
			return err
		}
		defer st.Close()
		columns = genericColumns(st.M())
		// Price the scenario from the store's own physics: timed IO at
		// startup, quantized so repeated boots of unchanged hardware key
		// to the same cached plans.
		calCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cal, err = topk.MeasureStore(calCtx, st, topk.StoreMeasureOptions{Cold: *coldCal})
		cancel()
		if err != nil {
			return fmt.Errorf("calibrating %s: %w", *storeDir, err)
		}
		log.Printf("topkd: calibrated %s: %s (cr/cs %.1fx)", st.Name(), cal.Key(), cal.Ratio())
	} else {
		switch {
		case *dataFile != "":
			f, err := os.Open(*dataFile)
			if err != nil {
				return err
			}
			ds, err = data.ReadJSON(f)
			f.Close()
			if err != nil {
				return err
			}
			columns = genericColumns(ds.M())
		case *benchQ == "q1":
			q, _, err := data.Restaurants(*n, *seed)
			if err != nil {
				return err
			}
			ds, columns = q.Dataset, q.PredicateNames
		case *benchQ == "q2":
			q, _, err := data.Hotels(*n, *seed)
			if err != nil {
				return err
			}
			ds, columns = q.Dataset, q.PredicateNames
		case *dist != "":
			d, derr := data.DistributionByName(*dist)
			if derr != nil {
				return derr
			}
			ds, err = data.Generate(d, *n, *m, *seed)
			if err != nil {
				return err
			}
			columns = genericColumns(ds.M())
		default:
			return fmt.Errorf("choose a database: -bench, -dist, or -data")
		}
	}

	if *shardCount > 0 || *shardIdx >= 0 {
		if coord != nil {
			return fmt.Errorf("-shard/-shards and -coordinator are different roles; pick one")
		}
		if st != nil {
			return fmt.Errorf("-shard mode serves an in-memory dataset; it cannot front -store")
		}
		return serveShard(*addr, ds, *shardIdx, *shardCount)
	}

	var scn access.Scenario
	if *scnFile == "" && st != nil {
		scn = topk.CalibratedScenario(st.M(), cal)
	} else if *scnFile != "" {
		f, err := os.Open(*scnFile)
		if err != nil {
			return err
		}
		scn, err = access.ReadScenarioJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		scn = access.Uniform(len(columns), *cs, *cr)
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
	h, err := service.NewHandler(service.Config{
		Dataset:            ds,
		Cluster:            coord,
		Store:              st,
		StoreCalibration:   cal,
		Columns:            columns,
		Scenario:           scn,
		Metrics:            reg,
		SlowQueryThreshold: *slowQ,
		EnablePprof:        *pprofOn,
		HealthBackend:      health,
		QueryTimeout:       *queryTimeout,
		MaxInflight:        *maxInflight,
		AccessTimeout:      *accessTimeout,
		Breaker:            topk.BreakerConfig{FailureThreshold: *brkThreshold, Cooldown: *brkCooldown},
		EnableSharing:      *shareOn,
		ShareScoreCapacity: *shareCap,
		AdaptivePeriod:     *adaptive,
		ContractGuard:      *guardOn,
		CursorTTL:          *cursorTTL,
		MaxCursors:         *maxCursors,
	})
	if err != nil {
		return err
	}
	if coord != nil {
		log.Printf("topkd: coordinating %d shards (%d objects, predicates %v) under scenario %q on %s (metrics on /metrics, share=%v)",
			coord.Shards(), coord.N(), columns, scn.Name, *addr, *shareOn)
	} else if st != nil {
		log.Printf("topkd: serving disk store %s (%d objects, predicates %v) under scenario %q on %s (metrics on /metrics, pprof=%v, share=%v)",
			st.Name(), st.N(), columns, scn.Name, *addr, *pprofOn, *shareOn)
	} else {
		log.Printf("topkd: serving %s (%d objects, predicates %v) under scenario %q on %s (metrics on /metrics, pprof=%v, share=%v)",
			ds.Name(), ds.N(), columns, scn.Name, *addr, *pprofOn, *shareOn)
	}
	return http.ListenAndServe(*addr, h)
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

// serveShard partitions the database the same way every peer node does
// (consistent hashing is deterministic in the shard count) and serves this
// node's slice for a coordinator to dial: the shard wire on /wire, the
// websim JSON protocol beside it.
func serveShard(addr string, ds *data.Dataset, idx, count int) error {
	if count < 1 {
		return fmt.Errorf("-shard requires -shards >= 1")
	}
	if idx < 0 || idx >= count {
		return fmt.Errorf("-shard index %d outside [0,%d)", idx, count)
	}
	parts, err := cluster.Partition(ds, count)
	if err != nil {
		return err
	}
	sd := parts[idx]
	if sd.LocalN() == 0 {
		return fmt.Errorf("shard %d of %d owns no objects of %s; use fewer shards", idx, count, ds.Name())
	}
	// Refused frames are logged with the frame id the coordinator chose, so
	// its error line for an access can be matched to this node's.
	srv, err := websim.NewServer(sd.Local, websim.WithShardObjects(sd.Global, ds.N()), websim.WithLogf(log.Printf))
	if err != nil {
		return err
	}
	log.Printf("topkd: serving shard %d/%d of %s (%d of %d objects) on %s",
		idx, count, ds.Name(), sd.LocalN(), ds.N(), addr)
	return http.ListenAndServe(addr, srv)
}

func genericColumns(m int) []string {
	cols := make([]string, m)
	for i := range cols {
		cols[i] = fmt.Sprintf("p%d", i+1)
	}
	return cols
}
