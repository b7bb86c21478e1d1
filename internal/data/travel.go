package data

import (
	"fmt"
	"math"
	"math/rand"
)

// This file generates the paper's travel-agent benchmark (Examples 1 and
// 2): restaurants for Query Q1 and hotels for Query Q2, with predicate
// scores derived from realistic attributes exactly as the queries define
// them. The paper used real Chicago-area Web sources (dineme.com,
// superpages.com, hotels.com); we synthesize attribute data with the same
// structure — see DESIGN.md's substitution table.

// Restaurant is one object of the Q1 benchmark.
type Restaurant struct {
	Name   string
	X, Y   float64 // location on a [0,10]x[0,10] mile grid
	Rating float64 // 0..5 stars
}

// Hotel is one object of the Q2 benchmark.
type Hotel struct {
	Name  string
	X, Y  float64
	Stars float64 // 1..5
	Price float64 // dollars per night
}

// TravelQuery bundles a benchmark dataset with the query context that
// produced it (the user location and, for hotels, the budget), so tools
// can report answers in domain terms.
type TravelQuery struct {
	Dataset *Dataset
	// PredicateNames documents each predicate column, e.g.
	// ["rating", "closeness"] for Q1.
	PredicateNames []string
	// UserX, UserY is the query's reference location ("myaddr").
	UserX, UserY float64
	// Budget is Q2's nightly budget in dollars (0 for Q1).
	Budget float64
}

const gridSide = 10.0 // miles

// closeness maps a distance on the grid to a [0,1] score: 1 at distance 0,
// linearly falling to 0 at the grid diagonal.
func closeness(x1, y1, x2, y2 float64) float64 {
	d := math.Hypot(x1-x2, y1-y2)
	max := gridSide * math.Sqrt2
	return clamp01(1 - d/max)
}

// Restaurants synthesizes n restaurants and returns Q1's two-predicate
// dataset: p_1 = rating (normalized stars, from the dineme.com analogue)
// and p_2 = closeness to the user's address (from the superpages.com
// analogue). This matches Example 1's
//
//	select name from restaurants
//	order by min(rating(r), closeness(r, myaddr)) stop after k
func Restaurants(n int, seed int64) (*TravelQuery, []Restaurant, error) {
	rng := rand.New(rand.NewSource(seed))
	userX, userY := 3.0, 4.0 // "myaddr": fixed so runs are comparable
	rs := make([]Restaurant, n)
	scores := make([]float64, 0, 2*n)
	labels := make([]string, n)
	for u := range rs {
		// Restaurants cluster downtown (around 5,5) with spread; ratings
		// are bell-shaped around 3.4 stars like typical review sites.
		r := Restaurant{
			Name:   fmt.Sprintf("restaurant-%03d", u),
			X:      clampGrid(5 + 2.2*rng.NormFloat64()),
			Y:      clampGrid(5 + 2.2*rng.NormFloat64()),
			Rating: math.Min(5, math.Max(0, 3.4+0.8*rng.NormFloat64())),
		}
		rs[u] = r
		scores = append(scores, r.Rating/5, closeness(r.X, r.Y, userX, userY))
		labels[u] = r.Name
	}
	ds, err := FromSlab(fmt.Sprintf("restaurants(n=%d,seed=%d)", n, seed), 2, scores)
	if err != nil {
		return nil, nil, err
	}
	ds.SetLabels(labels)
	return &TravelQuery{
		Dataset:        ds,
		PredicateNames: []string{"rating", "closeness"},
		UserX:          userX,
		UserY:          userY,
	}, rs, nil
}

// Hotels synthesizes n hotels and returns Q2's three-predicate dataset:
// p_1 = closeness, p_2 = rating (stars), p_3 = cheaper-than-budget fit.
// This matches Example 2's
//
//	select name from hotels
//	order by avg(closeness(h, myaddr), rating(h), cheap(h)) stop after k
//
// cheap(h) scores 1 at or below half the budget, 0 at or above twice the
// budget, linearly in between (on a log-price scale so the score is not
// dominated by luxury outliers).
func Hotels(n int, seed int64) (*TravelQuery, []Hotel, error) {
	rng := rand.New(rand.NewSource(seed))
	userX, userY := 3.0, 4.0
	budget := 150.0
	hs := make([]Hotel, n)
	scores := make([]float64, 0, 3*n)
	labels := make([]string, n)
	for u := range hs {
		stars := 1 + math.Floor(4*rng.Float64()+rng.Float64()) // 1..5, mild upward skew
		if stars > 5 {
			stars = 5
		}
		// Price correlates with stars plus noise: ~$60 per star level.
		price := 40 + 55*stars + 40*rng.NormFloat64()
		if price < 30 {
			price = 30
		}
		h := Hotel{
			Name:  fmt.Sprintf("hotel-%03d", u),
			X:     clampGrid(5 + 2.5*rng.NormFloat64()),
			Y:     clampGrid(5 + 2.5*rng.NormFloat64()),
			Stars: stars,
			Price: price,
		}
		hs[u] = h
		scores = append(scores, closeness(h.X, h.Y, userX, userY), (h.Stars-1)/4, cheapScore(h.Price, budget))
		labels[u] = h.Name
	}
	ds, err := FromSlab(fmt.Sprintf("hotels(n=%d,seed=%d)", n, seed), 3, scores)
	if err != nil {
		return nil, nil, err
	}
	ds.SetLabels(labels)
	return &TravelQuery{
		Dataset:        ds,
		PredicateNames: []string{"closeness", "rating", "cheap"},
		UserX:          userX,
		UserY:          userY,
		Budget:         budget,
	}, hs, nil
}

func cheapScore(price, budget float64) float64 {
	// 1 at price <= budget/2, 0 at price >= 2*budget, log-linear between.
	lo, hi := math.Log(budget/2), math.Log(budget*2)
	p := math.Log(price)
	return clamp01(1 - (p-lo)/(hi-lo))
}

func clampGrid(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > gridSide {
		return gridSide
	}
	return x
}
