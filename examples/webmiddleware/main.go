// Web middleware: the full stack over real HTTP. Two simulated Web
// sources (the dineme.com / superpages.com split of Example 1) run as
// local HTTP servers with different latencies. The middleware routes one
// query predicate to each, *calibrates* per-access costs by timing real
// requests, optimizes a plan for the calibrated scenario, and answers the
// query — first sequentially, then with real bounded concurrency, where
// every access is a concurrent HTTP request.
//
// Run with: go run ./examples/webmiddleware
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	topk "repro"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/websim"
)

func main() {
	// The "Web": two sources scoring different predicates of the same
	// restaurant universe, each with its own response latency.
	bench, restaurants, err := data.Restaurants(400, 21)
	if err != nil {
		log.Fatal(err)
	}
	ds := bench.Dataset

	dineme := startSource(ds, 0, 2*time.Millisecond) // rating, slower
	defer dineme.Close()
	superpages := startSource(ds, 1, 1*time.Millisecond) // closeness, faster
	defer superpages.Close()
	fmt.Printf("sources up: dineme=%s superpages=%s\n", dineme.URL, superpages.URL)

	// The middleware routes one query predicate to each source and prices
	// each route by timing real requests to that source alone: a few short
	// timed batches per access type, each access one round trip.
	ctx := context.Background()
	routes := []websim.Route{{BaseURL: dineme.URL, Pred: 0}, {BaseURL: superpages.URL, Pred: 0}}
	scn := topk.Scenario{Name: "calibrated-http", Preds: make([]topk.PredCost, len(routes))}
	for i, name := range []string{"rating", "closeness"} {
		source, err := websim.NewClient(ctx, http.DefaultClient, routes[i:i+1])
		if err != nil {
			log.Fatal(err)
		}
		cal, err := topk.MeasureStore(ctx, source, topk.StoreMeasureOptions{Probes: 5, Batches: 3})
		if err != nil {
			log.Fatal(err)
		}
		scn.Preds[i] = topk.PredCost{Sorted: topk.CostOf(cal.SortedMS), SortedOK: true, Random: topk.CostOf(cal.RandomMS), RandomOK: true}
		fmt.Printf("calibrated %-10s sorted %.1f ms, random %.1f ms\n", name, cal.SortedMS, cal.RandomMS)
	}

	backend, err := websim.NewClient(ctx, http.DefaultClient, routes)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := topk.NewEngine(backend, scn)
	if err != nil {
		log.Fatal(err)
	}
	query := topk.Query{F: topk.Min(), K: 5}

	// Sequential run: every access is one HTTP round trip.
	start := time.Now()
	seq, err := eng.Run(query)
	if err != nil {
		log.Fatal(err)
	}
	seqWall := time.Since(start)

	fmt.Println("top-5 restaurants by min(rating, closeness), fetched over HTTP:")
	for i, it := range seq.Items {
		r := restaurants[it.Obj]
		fmt.Printf("  %d. %-16s %.1f stars  score %.3f\n", i+1, r.Name, r.Rating, it.Score)
	}
	fmt.Printf("sequential: plan H=%v, %d requests, modeled cost %.0f ms, wall %v\n",
		seq.Plan.H, seq.Ledger.TotalAccesses(), seq.TotalCost().Units(), seqWall.Round(time.Millisecond))

	// Live bounded concurrency: same engine, 8 HTTP requests in flight.
	live, err := eng.Run(query, topk.WithLive(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live B=8:   %d requests, modeled cost %.0f ms, wall %v (%.1fx faster)\n",
		live.Ledger.TotalAccesses(), live.TotalCost().Units(),
		live.Wall.Round(time.Millisecond), float64(seqWall)/float64(live.Wall))
}

func startSource(ds *data.Dataset, pred int, latency time.Duration) *httptest.Server {
	srv, err := websim.NewServer(ds, websim.WithPredicates(pred), websim.WithFaults(fault.PredFault{SlowRate: 1, SlowDelay: latency}, 0))
	if err != nil {
		log.Fatal(err)
	}
	return httptest.NewServer(srv)
}
