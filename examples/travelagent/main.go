// Travel agent: the paper's motivating scenario (Examples 1 and 2).
//
// Query Q1 finds the top-5 restaurants that are highly rated AND close:
//
//	select name from restaurants
//	order by min(rating(r), closeness(r, myaddr)) stop after 5
//
// with dineme.com scoring rating (sorted 0.2s, random 1.0s) and
// superpages.com scoring closeness (sorted 0.1s, random 0.5s) — random
// accesses are more expensive in both sources, with different scales.
//
// Query Q2 finds the top-5 hotels that are close, well-starred, and within
// budget:
//
//	select name from hotels
//	order by avg(closeness(h, myaddr), rating(h), cheap(h)) stop after 5
//
// with hotels.com serving all predicates by sorted access (0.3s each); a
// sorted access returns the full record, so subsequent random accesses are
// free — the cost scenario no prior algorithm was designed for.
//
// Run with: go run ./examples/travelagent
package main

import (
	"context"
	"fmt"
	"log"

	topk "repro"
	"repro/internal/access"
	"repro/internal/data"
)

func main() {
	q1()
	q2()
}

func q1() {
	bench, restaurants, err := data.Restaurants(1000, 7)
	if err != nil {
		log.Fatal(err)
	}
	ds := bench.Dataset
	scn := topk.Scenario{Name: "example1", Preds: []topk.PredCost{
		{Sorted: topk.CostOf(0.2), SortedOK: true, Random: topk.CostOf(1.0), RandomOK: true}, // dineme.com: rating
		{Sorted: topk.CostOf(0.1), SortedOK: true, Random: topk.CostOf(0.5), RandomOK: true}, // superpages.com: closeness
	}}
	eng, err := topk.NewEngine(topk.DataBackend(ds), scn)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Q1: top-5 restaurants by min(rating, closeness)")
	ans, err := eng.Run(topk.Query{F: topk.Min(), K: 5})
	if err != nil {
		log.Fatal(err)
	}
	for i, it := range ans.Items {
		r := restaurants[it.Obj]
		fmt.Printf("  %d. %-16s %.1f stars at (%.1f,%.1f)  score %.3f\n",
			i+1, r.Name, r.Rating, r.X, r.Y, it.Score)
	}
	fmt.Printf("  optimized plan H=%v: %.1f s of source time\n", ans.Plan.H, ans.TotalCost().Units())

	for _, name := range []string{"TA", "CA"} {
		b, err := eng.Run(topk.Query{F: topk.Min(), K: 5}, topk.WithAlgorithm(name))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-3s would need %.1f s (%.0f%% of it saved by optimization)\n",
			name, b.TotalCost().Units(),
			100*(1-float64(ans.TotalCost())/float64(b.TotalCost())))
	}
	fmt.Println()
}

func q2() {
	bench, hotels, err := data.Hotels(1000, 8)
	if err != nil {
		log.Fatal(err)
	}
	ds := bench.Dataset
	free := topk.PredCost{Sorted: topk.CostOf(0.3), SortedOK: true, Random: 0, RandomOK: true}
	scn := topk.Scenario{Name: "example2", Preds: []topk.PredCost{free, free, free}}
	eng, err := topk.NewEngine(topk.DataBackend(ds), scn)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Q2: top-5 hotels by avg(closeness, rating, cheap), budget $%.0f\n", bench.Budget)
	// A deployed travel middleware keeps statistics: give the optimizer a
	// real sample so the chosen depths respect the actual distributions.
	sample, err := access.Sample(context.Background(), access.DatasetBackend{DS: ds}, 100, 1, "hotels/sample(100)")
	if err != nil {
		log.Fatal(err)
	}
	ans, err := eng.Run(topk.Query{F: topk.Avg(), K: 5},
		topk.WithOptimizer(topk.OptimizerConfig{Sample: sample}))
	if err != nil {
		log.Fatal(err)
	}
	for i, it := range ans.Items {
		h := hotels[it.Obj]
		fmt.Printf("  %d. %-12s %.0f stars, $%3.0f/night  score %.3f\n",
			i+1, h.Name, h.Stars, h.Price, it.Score)
	}
	fmt.Printf("  optimized plan H=%v: %.1f s of source time\n", ans.Plan.H, ans.TotalCost().Units())

	ta, err := eng.Run(topk.Query{F: topk.Avg(), K: 5}, topk.WithAlgorithm("TA"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  TA would need %.1f s — this 'random access cheaper' cell is the matrix's '?'\n",
		ta.TotalCost().Units())
}
