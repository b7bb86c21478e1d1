package share

import (
	"math"
	"sync/atomic"

	"repro/internal/obs"
)

// Stats is a point-in-time snapshot of a layer's sharing effectiveness.
// Hits never touched the wrapped backend; Backend* count the accesses
// that actually reached it — the aggregate quantity sharing exists to
// reduce (per-query ledgers are unaffected by design).
type Stats struct {
	// SortedHits are sorted accesses served from a shared cursor prefix;
	// SortedMisses drove a backend access extending a frontier.
	SortedHits, SortedMisses uint64
	// RandomHits are probes served from the score cache; RandomMisses
	// went to the backend.
	RandomHits, RandomMisses uint64
	// Coalesced are probes that piggybacked on a concurrent identical
	// in-flight probe instead of issuing their own backend access.
	Coalesced uint64
	// BackendSorted and BackendRandom count accesses that reached the
	// wrapped backend.
	BackendSorted, BackendRandom uint64
	// Invalidations counts shared-state drops (breaker-open transitions).
	Invalidations uint64
}

// hitRate returns the fraction of accesses of the given totals served
// without a backend access, or 0 when there were none.
func hitRate(hits, misses uint64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// SortedHitRate is the shared-cursor hit fraction.
func (s Stats) SortedHitRate() float64 { return hitRate(s.SortedHits, s.SortedMisses) }

// RandomHitRate is the score-cache hit fraction.
func (s Stats) RandomHitRate() float64 { return hitRate(s.RandomHits, s.RandomMisses) }

// Discount quantization: the optimizer fingerprints discounts into its
// plan-cache key, so a continuously drifting hit rate would defeat plan
// caching entirely. Discounts therefore snap to 10% steps, stay 0 until a
// minimum sample has accrued (early rates are noise), and cap below 1 so
// sources never look free.
const (
	discountWarmup  = 64
	discountQuantum = 0.1
	discountCap     = 0.9
)

// Discounts converts the observed hit rates into the quantized cost
// discounts the optimizer consumes (opt.Config.SortedDiscount and
// RandomDiscount): the expected fraction of nominal access cost that
// sharing absorbs.
func (s Stats) Discounts() (sorted, random float64) {
	return quantizeDiscount(s.SortedHits, s.SortedMisses), quantizeDiscount(s.RandomHits, s.RandomMisses)
}

func quantizeDiscount(hits, misses uint64) float64 {
	if hits+misses < discountWarmup {
		return 0
	}
	d := math.Floor(hitRate(hits, misses)/discountQuantum) * discountQuantum
	if d > discountCap {
		d = discountCap
	}
	return d
}

// stats holds the layer's internal counters.
type stats struct {
	sortedHits, sortedMisses     atomic.Uint64
	randomHits, randomMisses     atomic.Uint64
	coalesced                    atomic.Uint64
	backendSorted, backendRandom atomic.Uint64
	invalidations                atomic.Uint64
}

// Stats snapshots the counters.
func (l *Layer) Stats() Stats {
	return Stats{
		SortedHits:    l.stats.sortedHits.Load(),
		SortedMisses:  l.stats.sortedMisses.Load(),
		RandomHits:    l.stats.randomHits.Load(),
		RandomMisses:  l.stats.randomMisses.Load(),
		Coalesced:     l.stats.coalesced.Load(),
		BackendSorted: l.stats.backendSorted.Load(),
		BackendRandom: l.stats.backendRandom.Load(),
		Invalidations: l.stats.invalidations.Load(),
	}
}

// register exposes the layer's counters as the topk_share_* series of reg.
// The registry reads them at scrape time, so the hot path counts each fact
// once; layers sharing a registry are summed per series.
func (s *stats) register(reg *obs.Registry) {
	reg.CounterFunc("topk_share_sorted_total", "Sorted accesses through the sharing layer by outcome.", s.sortedHits.Load, obs.L("result", "hit"))
	reg.CounterFunc("topk_share_sorted_total", "Sorted accesses through the sharing layer by outcome.", s.sortedMisses.Load, obs.L("result", "miss"))
	reg.CounterFunc("topk_share_random_total", "Random accesses through the sharing layer by outcome.", s.randomHits.Load, obs.L("result", "hit"))
	reg.CounterFunc("topk_share_random_total", "Random accesses through the sharing layer by outcome.", s.randomMisses.Load, obs.L("result", "miss"))
	reg.CounterFunc("topk_share_coalesced_total", "Probes that joined a concurrent identical in-flight probe.", s.coalesced.Load)
	reg.CounterFunc("topk_share_invalidations_total", "Shared-state drops on breaker transitions.", s.invalidations.Load)
}
