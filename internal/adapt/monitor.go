// Package adapt is the mid-query adaptive layer: it watches a running
// execution's accesses, scores how far the sources have diverged from the
// plan's statistical assumptions, and — past a threshold — re-enters the
// optimizer with the observed statistics folded in, so NC/TA/MPro continue
// from suspended state under a plan that matches reality. It also provides
// the source contract guard (guard.go), which quarantines sources whose
// responses violate the sorted-access contract outright.
//
// The layer deliberately reuses existing machinery end to end: checkpoints
// ride the algo.AccessObserver hook, re-plans go through the plan cache
// with the observations fingerprinted into the key (the Config.SortedDiscount
// trick), plan swaps reconfigure the running cursor's selector (as the
// breaker scenario-change re-plan does), and guard quarantine flows through
// the resilience breakers.
package adapt

import (
	"math"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/opt"
	"repro/internal/state"
)

// Defaults for a zero Config.
const (
	// DefaultPeriod is the checkpoint cadence J: divergence is evaluated
	// every J performed accesses. Checkpoints cost a handful of float ops
	// per predicate, so J trades detection latency against (tiny) overhead.
	DefaultPeriod = 64
	// DefaultThreshold is the divergence score past which a re-plan fires.
	// Scores are absolute log2 distances between implied power-law
	// exponents, so 1.0 means "a source is descending at least 2x faster
	// or slower than planned" — comfortably past quantization noise
	// (QuantizeSlope's half-steps put honest sources below 0.25).
	DefaultThreshold = 1.0
	// DefaultStaleFactor scales Threshold to the stale-sample tripwire: at
	// Threshold*StaleFactor the estimator's sample is considered not just
	// drifted but wrong, and the re-plan routes to the statistics-free
	// greedy planner instead of re-simulating on a warped sample. The
	// factor is deliberately high (8x exponent distance): ordinary drift —
	// even several-fold — is handled better by warping the sample, and the
	// greedy fallback is reserved for streams the power-law model cannot
	// describe at all.
	DefaultStaleFactor = 3.0
	// DefaultMinDepth is the minimum sorted depth before a stream's slope
	// is trusted: ln(1 - d/(n+1)) is numerically tiny for the first few
	// accesses and a single outlier score would swing the implied exponent
	// wildly.
	DefaultMinDepth = 8
	// minProbes is the minimum random-access count before a predicate's
	// probe mean participates in divergence. The mean-to-exponent map
	// c = 1/mu - 1 is steep near small means, so a handful of unlucky
	// probes would otherwise imply a wildly wrong exponent and drive a
	// mid-query re-plan onto statistics that are pure noise.
	minProbes = 24
)

// Exponent clamp for raw (unquantized) observations; wider than the
// optimizer's [1/8, 8] planning clamp so divergence saturates rather than
// blowing up on degenerate streams.
const (
	minRawExp = 1.0 / 64
	maxRawExp = 64
)

// Config tunes a Monitor. Zero values take the defaults above.
type Config struct {
	Period      int     // checkpoint every Period accesses (J)
	Threshold   float64 // divergence score that triggers a re-plan
	StaleFactor float64 // Threshold multiplier for the stale-sample verdict
	MinDepth    int     // sorted depth below which slopes are not trusted
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = DefaultPeriod
	}
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.StaleFactor <= 1 {
		c.StaleFactor = DefaultStaleFactor
	}
	if c.MinDepth <= 0 {
		c.MinDepth = DefaultMinDepth
	}
	return c
}

// Verdict is a checkpoint's outcome.
type Verdict struct {
	// Score is the divergence score: the largest absolute log2 distance
	// between any observed statistic and the plan's baseline assumption.
	Score float64
	// Diverged reports Score >= Threshold: the plan's assumptions are off
	// enough that re-planning is expected to pay for itself.
	Diverged bool
	// Stale reports Score >= Threshold*StaleFactor: the sample itself is
	// wrong, so the re-plan should not trust it even warped — route to the
	// statistics-free greedy planner.
	Stale bool
}

// Monitor accumulates per-source observations and scores divergence
// against the plan's baseline. It is wired into executions as (part of) an
// algo.AccessObserver; Observe sits on the access hot path and is
// allocation-free after the first access sizes the per-predicate state.
//
// Divergence is measured in log2-exponent space. Each sorted stream's
// last-seen score ell at depth d implies a power-law exponent
// c = ln(ell)/ln(1 - d/(n+1)) (the dummy sample's uniform model has c=1);
// each probed predicate's mean score mu implies c = 1/mu - 1 (mean of U^c
// is 1/(1+c)). The monitor compares those implied exponents — and the
// frontier F(ell_1..ell_m) they induce — against baseline exponents, which
// start at the sample's (1 everywhere for the dummy sample) and are
// re-based onto the absorbed observations after each re-plan, so a source
// that diverged once does not trip the monitor forever.
//
// A Monitor is owned by one execution at a time (cursors are already
// single-owner); it is not safe for concurrent use.
type Monitor struct {
	cfg Config

	m           int       // predicate count; 0 until the first access
	baseExp     []float64 // baseline exponent per predicate
	probeCount  []int
	probeSum    []float64
	evalBuf     []float64 // scratch for frontier Eval
	sinceCheck  int
	checkpoints int
}

// NewMonitor builds a monitor with the given tuning (zero fields take
// defaults). Per-predicate state is sized lazily on first observation.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults()}
}

// Checkpoints reports how many checkpoints have been evaluated.
func (mo *Monitor) Checkpoints() int { return mo.checkpoints }

// Observe tallies one performed access and reports whether a checkpoint is
// due (every cfg.Period accesses). It does not evaluate divergence itself —
// the caller runs Checkpoint when told to — so the per-access cost is a
// few integer ops.
//
//topklint:hotpath
func (mo *Monitor) Observe(t *state.Table, ch algo.Choice, obj int, score float64) bool {
	if mo.m == 0 {
		//topklint:allow hotpathalloc lazy first-use sizing: grow runs once per execution, every later access is counter updates only
		mo.grow(t.M())
	}
	if ch.Kind == access.RandomAccess && ch.Pred < mo.m {
		mo.probeCount[ch.Pred]++
		mo.probeSum[ch.Pred] += score
	}
	mo.sinceCheck++
	if mo.sinceCheck < mo.cfg.Period {
		return false
	}
	mo.sinceCheck = 0
	return true
}

// grow sizes the per-predicate state (cold path: once per execution).
func (mo *Monitor) grow(m int) {
	mo.m = m
	mo.baseExp = make([]float64, m)
	for i := range mo.baseExp {
		mo.baseExp[i] = 1
	}
	mo.probeCount = make([]int, m)
	mo.probeSum = make([]float64, m)
	mo.evalBuf = make([]float64, m)
}

// impliedSlope returns the power-law exponent implied by the stream's
// last-seen score at its current depth, or 0 when the stream is too
// shallow to trust.
func (mo *Monitor) impliedSlope(t *state.Table, i int) float64 {
	d := t.Depth(i)
	if d < mo.cfg.MinDepth {
		return 0
	}
	n := t.N()
	fr := 1 - float64(d)/float64(n+1)
	if fr <= 0 || fr >= 1 {
		return 0
	}
	ell := t.LastSeen(i)
	if ell <= 0 {
		return maxRawExp // scores collapsed to zero: maximal descent
	}
	if ell >= 1 {
		return minRawExp // flat head pinned at 1: minimal descent
	}
	return clampExp(math.Log(ell) / math.Log(fr))
}

// impliedProbe returns the exponent implied by the predicate's observed
// random-access mean, or 0 with fewer than minProbes observations.
func (mo *Monitor) impliedProbe(i int) float64 {
	if mo.probeCount[i] < minProbes {
		return 0
	}
	mu := mo.probeSum[i] / float64(mo.probeCount[i])
	if mu <= 0 {
		return maxRawExp
	}
	if mu >= 1 {
		return minRawExp
	}
	return clampExp(1/mu - 1)
}

func clampExp(c float64) float64 {
	if math.IsNaN(c) || c < minRawExp {
		return minRawExp
	}
	if c > maxRawExp {
		return maxRawExp
	}
	return c
}

// logDist is the divergence metric: absolute distance in log2 space.
func logDist(obs, base float64) float64 {
	return math.Abs(math.Log2(obs) - math.Log2(base))
}

// Checkpoint scores the current divergence between observed source
// behaviour and the baseline. Three families of evidence contribute, and
// the score is their maximum:
//
//   - slope: per sorted stream, |log2(c_obs) - log2(c_base)| for the
//     exponent implied by the last-seen score at the current depth;
//   - probes: per predicate with enough random accesses, the same distance
//     for the exponent implied by the observed probe mean;
//   - frontier: |log2(F_obs/F_exp)| comparing the actual unseen-object
//     ceiling F(ell_1..ell_m) against the ceiling the baseline exponents
//     predict at the same depths — the aggregate check that catches
//     correlated drift the per-source checks each deem mild.
func (mo *Monitor) Checkpoint(t *state.Table) Verdict {
	if mo.m == 0 {
		mo.grow(t.M())
	}
	mo.checkpoints++
	score := 0.0
	n := t.N()
	for i := 0; i < mo.m; i++ {
		if c := mo.impliedSlope(t, i); c > 0 {
			if d := logDist(c, mo.baseExp[i]); d > score {
				score = d
			}
		}
		if c := mo.impliedProbe(i); c > 0 {
			if d := logDist(c, mo.baseExp[i]); d > score {
				score = d
			}
		}
		// Expected frontier component: the last-seen score the baseline
		// exponent predicts at this stream's actual depth.
		fr := 1 - float64(t.Depth(i))/float64(n+1)
		if fr < 0 {
			fr = 0
		}
		mo.evalBuf[i] = math.Pow(fr, mo.baseExp[i])
	}
	const eps = 1e-9
	fExp := t.Func().Eval(mo.evalBuf)
	fObs := t.UnseenUpper()
	if d := math.Abs(math.Log2((fObs + eps) / (fExp + eps))); d > score {
		score = d
	}
	return Verdict{
		Score:    score,
		Diverged: score >= mo.cfg.Threshold,
		Stale:    score >= mo.cfg.Threshold*mo.cfg.StaleFactor,
	}
}

// Observed renders the monitor's current evidence as quantized optimizer
// statistics — the form that extends the plan-cache fingerprint, so equal
// observations across checkpoints (and across queries) share one plan.
//
// Streams too shallow to measure take the global-drift prior: the
// geometric mean of the measured exponents. Drift is usually source-wide
// (a ranking model changed, a score scale moved), and without the prior a
// re-plan would model every untouched stream as uniform — strictly more
// attractive than the drifted ones — and re-allocate the drain work onto
// exactly the streams nothing is known about, stranding the progress the
// query already paid for.
func (mo *Monitor) Observed(t *state.Table) *opt.ObservedStats {
	if mo.m == 0 {
		mo.grow(t.M())
	}
	st := &opt.ObservedStats{
		Slopes:     make([]float64, mo.m),
		ProbeMeans: make([]float64, mo.m),
	}
	observed := 0
	logSum := 0.0
	for i := 0; i < mo.m; i++ {
		st.Slopes[i] = opt.QuantizeSlope(mo.impliedSlope(t, i))
		if mo.probeCount[i] >= minProbes {
			st.ProbeMeans[i] = opt.QuantizeMean(mo.probeSum[i] / float64(mo.probeCount[i]))
		}
		if st.Slopes[i] > 0 || st.ProbeMeans[i] > 0 {
			observed++
			logSum += math.Log(st.Exponent(i))
		}
	}
	if observed > 0 && observed < mo.m {
		prior := opt.QuantizeSlope(math.Exp(logSum / float64(observed)))
		for i := 0; i < mo.m; i++ {
			if st.Slopes[i] == 0 && st.ProbeMeans[i] == 0 {
				st.Slopes[i] = prior
			}
		}
	}
	return st
}

// Rebase re-anchors the baseline onto statistics a re-plan just absorbed:
// future divergence is measured against the new plan's assumptions, so one
// drift event does not trip checkpoints forever.
func (mo *Monitor) Rebase(st *opt.ObservedStats) {
	for i := range mo.baseExp {
		mo.baseExp[i] = st.Exponent(i)
	}
}
