// Package stats provides the score-distribution statistics the paper's
// cost estimation builds on (Section 7.3): per-predicate histograms
// generalizing Boolean selectivities, with CDF/quantile queries, and
// histogram-driven sample synthesis — the paper's "samples ... built
// offline (e.g., based on a priori knowledge on predicate score
// distribution)" provenance, sitting between dummy uniform samples and
// real data samples.
//
// Synthesized samples assume predicate independence, exactly like the
// Boolean optimizers the paper draws its analogy from; correlation is what
// only real samples capture (see experiment E8(c) / E3's anticorrelated
// rows).
package stats

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
)

// Histogram is an equi-width histogram over [0,1].
type Histogram struct {
	counts []int
	total  int
}

// NewHistogram creates an empty histogram with the given bucket count.
func NewHistogram(buckets int) (*Histogram, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket, got %d", buckets)
	}
	return &Histogram{counts: make([]int, buckets)}, nil
}

// Buckets returns the bucket count.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

func (h *Histogram) bucketOf(x float64) int {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	b := int(x * float64(len(h.counts)))
	if b == len(h.counts) {
		b--
	}
	return b
}

// Add records one observation (clamped to [0,1]).
func (h *Histogram) Add(x float64) {
	h.counts[h.bucketOf(x)]++
	h.total++
}

// CDF returns P(X <= x), interpolating linearly within the bucket of x.
// An empty histogram is treated as uniform.
func (h *Histogram) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	if h.total == 0 {
		return x
	}
	b := h.bucketOf(x)
	w := 1 / float64(len(h.counts))
	below := 0
	for i := 0; i < b; i++ {
		below += h.counts[i]
	}
	frac := (x - float64(b)*w) / w
	return (float64(below) + frac*float64(h.counts[b])) / float64(h.total)
}

// Survival returns P(X > x) — the "selectivity" of a sorted list cut at
// score x: the expected fraction of objects a sorted access walk passes
// before its last-seen bound reaches x.
func (h *Histogram) Survival(x float64) float64 { return 1 - h.CDF(x) }

// Quantile returns the smallest x with CDF(x) >= p, interpolated.
func (h *Histogram) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	if h.total == 0 {
		return p
	}
	target := p * float64(h.total)
	acc := 0.0
	w := 1 / float64(len(h.counts))
	for i, c := range h.counts {
		if acc+float64(c) >= target {
			if c == 0 {
				return float64(i) * w
			}
			frac := (target - acc) / float64(c)
			return (float64(i) + frac) * w
		}
		acc += float64(c)
	}
	return 1
}

// Mean returns the histogram's mean (bucket midpoints weighted by counts);
// 0.5 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0.5
	}
	w := 1 / float64(len(h.counts))
	sum := 0.0
	for i, c := range h.counts {
		sum += float64(c) * (float64(i) + 0.5) * w
	}
	return sum / float64(h.total)
}

// Draw samples one value by inverse-transform sampling.
func (h *Histogram) Draw(rng *rand.Rand) float64 { return h.Quantile(rng.Float64()) }

// Collect builds one histogram per predicate from a dataset (or a sample
// of one), the middleware's offline statistics.
func Collect(ds *data.Dataset, buckets int) ([]*Histogram, error) {
	out := make([]*Histogram, ds.M())
	for i := range out {
		h, err := NewHistogram(buckets)
		if err != nil {
			return nil, err
		}
		for u := 0; u < ds.N(); u++ {
			h.Add(ds.Score(u, i))
		}
		out[i] = h
	}
	return out, nil
}

// SynthesizeSample generates a sample dataset of s objects whose predicate
// scores are drawn independently from the given per-predicate histograms —
// the optimizer's third sample provenance. Deterministic for a seed.
func SynthesizeSample(hists []*Histogram, s int, seed int64) (*data.Dataset, error) {
	if len(hists) == 0 {
		return nil, fmt.Errorf("stats: SynthesizeSample needs at least one histogram")
	}
	if s < 1 {
		s = 1
	}
	rng := rand.New(rand.NewSource(seed))
	scores := make([]float64, 0, s*len(hists))
	for u := 0; u < s; u++ {
		for _, h := range hists {
			scores = append(scores, h.Draw(rng))
		}
	}
	return data.FromSlab(fmt.Sprintf("histsample(s=%d,seed=%d)", s, seed), len(hists), scores)
}
