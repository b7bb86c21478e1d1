package adapt

import (
	"math"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/state"
)

// Adapter drives mid-query re-planning: it is the algo.AccessObserver an
// execution's Monitor hook points at. Every access feeds the divergence
// monitor; when a checkpoint comes due and reports divergence, the adapter
// re-enters the optimizer — through the caller-supplied PlanFunc, which is
// expected to route through the plan cache — with the quantized observed
// statistics folded into the configuration, then installs the new plan via
// ApplyFunc (the facade reconfigures the running cursor's selector, the
// same swap its scenario-change re-plan makes).
//
// Re-plans are best-effort: a failing PlanFunc or ApplyFunc leaves the
// current plan in force (the execution is still correct under any plan —
// the SR/G fallback rule guarantees termination), and the error is
// swallowed so a flaky optimizer can never kill a running query.
//
// An Adapter with a nil PlanFunc or ApplyFunc is telemetry-only: it
// monitors and checkpoints but never re-plans — the mode TA executions
// use, since TA has no plan degrees of freedom to change.
type Adapter struct {
	// Mon scores divergence. Required.
	Mon *Monitor
	// Base is the optimizer configuration re-plans start from; the adapter
	// copies it and sets Observed (and, for stale verdicts, Scheme).
	Base opt.Config
	// PlanFunc produces a plan for the amended configuration. It should go
	// through the engine's plan cache so repeated identical observations
	// (this query or any other) hit the cache. Nil disables re-planning.
	PlanFunc func(cfg opt.Config) (opt.Plan, error)
	// ApplyFunc installs a freshly produced plan on the live execution.
	// Nil disables re-planning.
	ApplyFunc func(p opt.Plan) error
	// Obs receives AdaptiveReplan events (may be nil).
	Obs obs.Observer
	// ScenarioChanged, when non-nil, reports whether the access scenario
	// changed since it last reported true (cost shifts, breaker flips). A
	// checkpoint then re-plans even without statistical divergence — the
	// costs the plan was priced against are gone, exactly the case the
	// page-boundary scenario-change re-plan handles, applied mid-page.
	ScenarioChanged func() bool
	// MaxReplans caps drift-triggered re-plans per execution (zero takes
	// DefaultMaxReplans). Every plan switch strands some of the work done
	// under the old plan, so past a few swaps the adapter stops chasing
	// statistics and lets the current plan run out. Scenario-change
	// re-plans are exempt: stale costs are wrong no matter how often.
	MaxReplans int
	// Incumbent is the plan currently driving the execution; the adapter
	// updates it after each applied re-plan. When EstimateFunc is also
	// set, a candidate plan must beat the incumbent — both priced under
	// the same observation-warped model — by ReplanMargin before it is
	// applied: switching strands work already done under the incumbent,
	// so a statistically noisy "slightly better" candidate is a net loss.
	Incumbent opt.Plan
	// EstimateFunc prices a fixed (H, Omega) configuration under the
	// amended configuration (opt.EstimateConfiguration through the
	// engine). Nil skips the incumbent comparison.
	EstimateFunc func(cfg opt.Config, h []float64, omega []int) (access.Cost, error)
	// Scenario, when non-nil, returns the live access scenario; the
	// incumbent comparison uses its unit costs to reason about sunk work
	// (see betterThanIncumbent). Nil falls back to the from-scratch
	// comparison.
	Scenario func() access.Scenario

	lastKey string
	replans int
}

// DefaultMaxReplans bounds drift-triggered re-plans per execution.
const DefaultMaxReplans = 1

// ReplanMargin is the estimated-cost improvement a candidate plan must
// show over the incumbent (under the same model) before a mid-query swap:
// candidate < (1 - ReplanMargin) * incumbent.
const ReplanMargin = 0.25

var _ algo.AccessObserver = (*Adapter)(nil)

// Replans reports how many re-plans were actually applied.
func (a *Adapter) Replans() int { return a.replans }

// ObserveAccess is the checkpoint hook (see algo.AccessObserver). The
// per-access path is the monitor's counters only; the divergence math runs
// every Period accesses, and the optimizer only when it reports drift.
func (a *Adapter) ObserveAccess(t *state.Table, ch algo.Choice, obj int, score float64) {
	if !a.Mon.Observe(t, ch, obj, score) {
		return
	}
	v := a.Mon.Checkpoint(t)
	scnChanged := a.ScenarioChanged != nil && a.ScenarioChanged()
	if !v.Diverged && !scnChanged {
		return
	}
	if a.PlanFunc == nil || a.ApplyFunc == nil {
		return // telemetry-only
	}
	max := a.MaxReplans
	if max <= 0 {
		max = DefaultMaxReplans
	}
	if a.replans >= max && !scnChanged {
		return
	}
	stats := a.Mon.Observed(t)
	key := stats.Key()
	if key == a.lastKey && !scnChanged {
		// Identical quantized observations produce the identical cache key,
		// hence provably the identical plan: skip the round trip. This is
		// also the thrash guard — a source divergent in a way no plan can
		// absorb re-plans once, not every checkpoint. A scenario change
		// bypasses the skip: the scenario re-keys the cache on its own.
		return
	}
	cfg := a.Base
	cfg.Observed = stats
	trigger := "divergence"
	switch {
	case v.Stale:
		// The sample is not just drifted but wrong: bypass the estimator
		// and its sample entirely, plan from capabilities and observations.
		cfg.Scheme = opt.SchemeGreedy
		trigger = "stale_sample"
	case !v.Diverged:
		trigger = "scenario_change"
	}
	p, err := a.PlanFunc(cfg)
	if err != nil {
		return
	}
	if !scnChanged && !a.betterThanIncumbent(t, stats, cfg, p) {
		// The candidate's modelled advantage doesn't clear the switching
		// cost. Remember the key: the same observations need not be priced
		// again next checkpoint.
		a.lastKey = key
		return
	}
	if err := a.ApplyFunc(p); err != nil {
		return
	}
	a.lastKey = key
	a.replans++
	a.Incumbent = p
	a.Mon.Rebase(stats)
	if a.Obs != nil {
		a.Obs.Observe(obs.Event{Kind: obs.AdaptiveReplan, Label: trigger, Value: v.Score})
	}
}

// betterThanIncumbent decides whether a candidate plan is worth a
// mid-query switch. Both plans are priced from scratch by the estimator
// under the same amended (observation-warped) configuration — the
// candidate's own EstimatedCost may come from a different model (greedy's
// closed form) and is not comparable. The from-scratch estimates are then
// converted to *remaining* costs, because a switch competes against
// finishing the incumbent, not starting it:
//
//   - the incumbent is credited with everything spent so far — the
//     execution followed it, so all sunk work lies on its path;
//   - the candidate is credited only with the drained prefixes it would
//     itself descend (min of current and target depth per stream) —
//     progress on streams it abandons is stranded.
//
// The candidate must then still win by ReplanMargin: estimates are noisy,
// and a modelled near-tie realizes as a loss once switching strands work.
func (a *Adapter) betterThanIncumbent(t *state.Table, stats *opt.ObservedStats, cfg opt.Config, candidate opt.Plan) bool {
	if a.EstimateFunc == nil || len(a.Incumbent.H) == 0 {
		return true
	}
	cur, err := a.EstimateFunc(cfg, a.Incumbent.H, a.Incumbent.Omega)
	if err != nil {
		return true
	}
	cand, err := a.EstimateFunc(cfg, candidate.H, candidate.Omega)
	if err != nil {
		return false
	}
	curRem, candRem := float64(cur), float64(cand)
	if a.Scenario != nil {
		scn := a.Scenario()
		n := t.N()
		for i := 0; i < len(scn.Preds) && i < a.Mon.m && i < len(candidate.H); i++ {
			cs := float64(scn.Preds[i].Sorted)
			d := float64(t.Depth(i))
			curRem -= d*cs + float64(a.Mon.probeCount[i])*float64(scn.Preds[i].Random)
			candRem -= math.Min(d, targetDepth(candidate.H[i], stats.Exponent(i), n)) * cs
		}
		if curRem < 0 {
			curRem = 0
		}
		if candRem < 0 {
			candRem = 0
		}
	}
	return candRem < (1-ReplanMargin)*curRem
}

// targetDepth is the sorted depth at which a stream with power-law
// exponent c is expected to fall below the score threshold h.
func targetDepth(h, c float64, n int) float64 {
	if h >= 1 {
		return 0
	}
	if h <= 0 || c <= 0 {
		return float64(n)
	}
	return (1 - math.Pow(h, 1/c)) * float64(n)
}
