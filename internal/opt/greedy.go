package opt

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/score"
)

// ObservedStats carries mid-query observations back into the optimizer.
// The divergence monitor (internal/adapt) fills one in when a running
// query's sources stop matching the plan's assumptions; Optimize then
// warps the dummy sample to match and the plan cache fingerprints the
// values — the same trick Config.SortedDiscount uses for sharing hit
// rates — so identical observations across queries share one plan.
//
// All values must be quantized (QuantizeSlope/QuantizeMean) before they
// reach a Config: raw floats would make every re-plan a cache miss.
type ObservedStats struct {
	// Slopes[i] is the implied power-law exponent of predicate i's sorted
	// stream: the c for which the observed last-seen score at depth d
	// matches ell = (1 - d/(n+1))^c. 1 means the stream descends exactly
	// as the uniform dummy sample predicts; >1 faster (scores collapse
	// early), <1 slower (a flat head). 0 means "no observation".
	Slopes []float64
	// ProbeMeans[i] is the observed mean random-access score on predicate
	// i, quantized; the uniform assumption is 0.5. <= 0 means "no
	// observation".
	ProbeMeans []float64
}

// Slope exponents are clamped to [1/8, 8]: beyond that the warped sample
// degenerates (every score ~0 or ~1) and plans stop discriminating.
const (
	minSlope = 0.125
	maxSlope = 8
)

// QuantizeSlope snaps an implied stream exponent onto half-steps in log2
// space, clamped to [1/8, 8] — 13 distinct values, so the plan-cache key
// space stays small as observations drift.
func QuantizeSlope(c float64) float64 {
	if math.IsNaN(c) || c <= 0 {
		return 0
	}
	q := math.Exp2(math.Round(math.Log2(c)*2) / 2)
	if q < minSlope {
		return minSlope
	}
	if q > maxSlope {
		return maxSlope
	}
	return q
}

// QuantizeMean snaps an observed mean score to 1/16 steps, clamped away
// from the {0,1} endpoints so the implied exponent stays finite.
func QuantizeMean(mu float64) float64 {
	if math.IsNaN(mu) || mu <= 0 {
		return 0
	}
	q := math.Round(mu*16) / 16
	if q < 1.0/16 {
		q = 1.0 / 16
	}
	if q > 15.0/16 {
		q = 15.0 / 16
	}
	return q
}

// Exponent combines the slope and probe-mean observations for predicate i
// into one power-law exponent (geometric mean when both are present), or
// 1 — the uniform assumption — when neither was observed. The divergence
// monitor uses it to re-baseline after a re-plan: once a plan has absorbed
// the observations, further divergence is measured against them.
func (o *ObservedStats) Exponent(i int) float64 {
	var cs, cm float64
	if o != nil && i < len(o.Slopes) && o.Slopes[i] > 0 {
		cs = o.Slopes[i]
	}
	if o != nil && i < len(o.ProbeMeans) && o.ProbeMeans[i] > 0 {
		// Mean of U^c is 1/(1+c), so an observed mean mu implies c = 1/mu - 1.
		cm = 1/o.ProbeMeans[i] - 1
		if cm < minSlope {
			cm = minSlope
		}
		if cm > maxSlope {
			cm = maxSlope
		}
	}
	switch {
	case cs > 0 && cm > 0:
		return math.Sqrt(cs * cm)
	case cs > 0:
		return cs
	case cm > 0:
		return cm
	default:
		return 1
	}
}

// Key renders the observations as the plan-cache key fragment; empty when
// there is nothing to distinguish from the no-observation baseline. The
// adaptive layer compares keys across checkpoints to skip re-plans that
// would provably return the current plan.
func (o *ObservedStats) Key() string {
	if o == nil || (len(o.Slopes) == 0 && len(o.ProbeMeans) == 0) {
		return ""
	}
	any := false
	var b strings.Builder
	b.WriteString("obs=")
	for i, s := range o.Slopes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", s)
		if s > 0 && s != 1 {
			any = true
		}
	}
	b.WriteByte(';')
	for i, mu := range o.ProbeMeans {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", mu)
		if mu > 0 && mu != 0.5 {
			any = true
		}
	}
	if !any {
		return ""
	}
	return b.String()
}

// appendWarp appends the power-law exponents that warp an m-predicate
// dummy sample to match the observations, or nothing when every exponent
// is 1 and the sample stands as it is.
func (o *ObservedStats) appendWarp(dst []float64, m int) []float64 {
	identity := true
	for i := 0; i < m; i++ {
		c := o.Exponent(i)
		dst = append(dst, c)
		identity = identity && c == 1
	}
	if identity {
		return dst[:len(dst)-m]
	}
	return dst
}

// warpSample pushes the sample's per-predicate scores through the observed
// power law (v -> v^exps[i]), so simulation runs price configurations
// against streams shaped like the ones actually being served.
func warpSample(sample *data.Dataset, exps []float64) (*data.Dataset, error) {
	n, m := sample.N(), sample.M()
	scores := make([][]float64, n)
	for u := 0; u < n; u++ {
		row := make([]float64, m)
		for i := 0; i < m; i++ {
			row[i] = math.Pow(sample.Score(u, i), exps[i])
		}
		scores[u] = row
	}
	return data.New(sample.Name()+"/warped", scores)
}

// greedyFan is the candidate multiplier of the greedy depth rule: sorted
// streams are drained until roughly greedyFan*k objects have been seen,
// enough to cover the top-k under mild cross-predicate disagreement.
const greedyFan = 4

// depthAt returns the expected last-seen score after d sorted accesses on
// a stream with implied exponent c: the uniform quantile 1 - d/(n+1)
// pushed through the power law.
func depthAt(d, n int, c float64) float64 {
	fr := 1 - float64(d)/float64(n+1)
	if fr < 0 {
		fr = 0
	}
	return math.Pow(fr, c)
}

// rankAt inverts depthAt: how many sorted accesses it takes to descend to
// score h on a stream with exponent c.
func rankAt(h float64, n int, c float64) float64 {
	if h >= 1 {
		return 0
	}
	if h <= 0 {
		return float64(n)
	}
	return (1 - math.Pow(h, 1/c)) * float64(n+1)
}

// Greedy is the statistics-free planner (the re-plan fast path and the
// fallback when the estimator's sample is flagged stale): H and Omega are
// picked directly from the scenario's capability/cost asymmetries, the
// scoring function's shape, and the observed stream slopes — closed-form,
// no simulation runs, microseconds instead of the estimator's hundreds of
// sampled executions.
//
// Heuristics (DESIGN.md section 14):
//   - Omega orders predicates by expected bound reduction per unit probe
//     cost, (1 - mean_i)/cr_i, exactly like OptimizeOmega but with means
//     from the observed power law instead of a sample.
//   - Probe-incapable sorted predicates must be drained to be learned at
//     all; they always receive sorted depth.
//   - Min-like F focuses on one stream (candidates must be high on every
//     predicate, so one selective stream bounds the rest via probes); the
//     cheapest sorted source is drained to ~greedyFan*k candidates.
//   - Mean-like F deepens every sorted predicate in parallel, except those
//     whose random access is strictly cheaper — probing them on demand
//     dominates draining them speculatively.
//   - Max-like F skims every sorted stream to ~k: any single list can
//     carry a top answer.
//
// The returned plan's EstimatedCost is the closed-form drain+probe figure,
// comparable across greedy plans but not against estimator simulations;
// Evals is always 0.
func Greedy(scn access.Scenario, f score.Func, k, n int, obsv *ObservedStats) (Plan, error) {
	m := scn.M()
	if err := scn.Validate(m); err != nil {
		return Plan{}, err
	}
	if err := score.Validate(f, m); err != nil {
		return Plan{}, err
	}
	if k <= 0 || n <= 0 {
		return Plan{}, fmt.Errorf("opt: greedy planner requires positive k and n, got k=%d n=%d", k, n)
	}
	exps := make([]float64, m)
	for i := range exps {
		exps[i] = obsv.Exponent(i)
	}

	drain := greedyFan * k
	if drain > n {
		drain = n
	}
	skim := k
	if skim > n {
		skim = n
	}

	h := make([]float64, m)
	for i := range h {
		h[i] = 1
	}
	// Probe-incapable sorted predicates can only be learned by draining.
	for i, pc := range scn.Preds {
		if pc.SortedOK && !pc.RandomOK {
			h[i] = depthAt(drain, n, exps[i])
		}
	}
	switch f.Shape() {
	case score.ShapeMeanLike:
		for i, pc := range scn.Preds {
			if !pc.SortedOK || h[i] < 1 {
				continue
			}
			if pc.RandomOK && pc.Random < pc.Sorted {
				continue // probing on demand beats speculative draining
			}
			h[i] = depthAt(drain, n, exps[i])
		}
	case score.ShapeMaxLike:
		for i, pc := range scn.Preds {
			if pc.SortedOK {
				h[i] = depthAt(skim, n, exps[i])
			}
		}
	}
	// At least one stream must discover objects (no wild guesses): if no
	// predicate got depth above, drain the cheapest sorted source.
	if !anyBelow(h, 1) {
		best := -1
		for i, pc := range scn.Preds {
			if pc.SortedOK && (best == -1 || pc.Sorted < scn.Preds[best].Sorted) {
				best = i
			}
		}
		// Validate guarantees a sorted-capable predicate exists.
		h[best] = depthAt(drain, n, exps[best])
	}

	omega := greedyOmega(scn, obsv, exps)

	var units float64
	for i, pc := range scn.Preds {
		if h[i] < 1 {
			units += rankAt(h[i], n, exps[i]) * pc.Sorted.Units()
		} else if pc.RandomOK {
			units += float64(drain) * pc.Random.Units()
		}
	}
	return Plan{H: h, Omega: omega, EstimatedCost: access.CostOf(units), Evals: 0}, nil
}

func anyBelow(h []float64, bound float64) bool {
	for _, v := range h {
		if v < bound {
			return true
		}
	}
	return false
}

// greedyOmega mirrors OptimizeOmega's schedule — expected upper-bound
// reduction per unit probe cost, probe-incapable predicates last in index
// order — with means implied by the observed power law (1/(1+c), or the
// observed probe mean directly) instead of sample statistics.
func greedyOmega(scn access.Scenario, obsv *ObservedStats, exps []float64) []int {
	m := scn.M()
	gain := make([]float64, m)
	for i, pc := range scn.Preds {
		if !pc.RandomOK {
			gain[i] = math.Inf(-1)
			continue
		}
		mean := 1 / (1 + exps[i])
		if obsv != nil && i < len(obsv.ProbeMeans) && obsv.ProbeMeans[i] > 0 {
			mean = obsv.ProbeMeans[i]
		}
		cost := pc.Random.Units()
		if cost <= 0 {
			cost = 1e-9
		}
		gain[i] = (1 - mean) / cost
	}
	omega := make([]int, m)
	for i := range omega {
		omega[i] = i
	}
	// Stable selection sort, descending gain, index order on ties.
	for i := 0; i < m; i++ {
		best := i
		for j := i + 1; j < m; j++ {
			if gain[omega[j]] > gain[omega[best]] {
				best = j
			}
		}
		omega[i], omega[best] = omega[best], omega[i]
	}
	return omega
}
