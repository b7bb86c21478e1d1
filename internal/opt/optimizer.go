package opt

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/state"
)

// Config parameterizes the optimizer. The zero value is usable: HClimb
// over an 11-point grid with a 50-object dummy sample and 5 restarts.
type Config struct {
	Scheme     Scheme
	Grid       int   // grid points per dimension (default 11)
	SampleSize int   // dummy-sample size when no sample is given (default 50)
	Restarts   int   // HClimb restarts (default 5)
	MaxEvals   int   // Naive mesh budget (default 20000)
	Seed       int64 // randomness for HClimb starts and dummy samples
	// Sample optionally supplies real sample objects (Section 7.3); when
	// nil a dummy uniform sample is synthesized, the paper's worst case.
	Sample *data.Dataset
	// NoWildGuesses mirrors the execution session's setting so simulation
	// runs exercise the same code path (default true).
	DisableNWG bool
	// RefineOmega enables the second stage of Section 7.2's two-stage
	// approximation in exhaustive form: after the H-search, all m!
	// probe schedules are estimated at the chosen depths and the best is
	// kept. Only honored for m <= 4 (beyond that the greedy schedule
	// stands, as the paper prescribes).
	RefineOmega bool
	// SortedDiscount and RandomDiscount scale the scenario's per-access
	// costs down before planning, modeling expected savings from the
	// cross-query sharing layer: a sorted access that hits a shared cursor
	// prefix (or a random access that hits the score cache) never reaches
	// the source, so its expected cost is (1 - hit rate) of the nominal
	// cost. Values are clamped to [0, maxDiscount]; callers should feed
	// quantized rates (share.Stats.Discounts) so plan-cache keys stay
	// stable as the observed rate drifts.
	SortedDiscount float64
	RandomDiscount float64
	// Observed, when non-nil, injects quantized mid-query observations
	// (internal/adapt's divergence monitor) into planning: the dummy
	// sample is warped per predicate to match the observed sorted-descent
	// slopes and random-access means, the greedy scheme consumes them
	// directly, and the values are fingerprinted into the plan-cache key —
	// the same trick SortedDiscount uses — so re-plans against repeated
	// observations are cache hits. A caller-supplied Sample is never
	// warped: real samples are ground truth, observations only correct
	// the dummy uniform assumption.
	Observed *ObservedStats
	// BackendKey fingerprints what the plan's accesses will actually run
	// against beyond the scenario: live shard membership
	// (cluster.Coordinator.MembershipKey — plans chosen while one shard set
	// was live must not be replayed against another; breakers re-key the
	// scenario on their own, this covers the window before they trip and
	// the recovery after they close) and a disk store's identity with its
	// IO-measured calibration (store.Calibration.Key, quantized to two
	// significant figures so repeat calibrations of unchanged physics stay
	// cache hits). The engine composes it from its backend stack; it joins
	// the plan-cache key and does not change the optimization itself.
	// Empty for single-node backends under declared costs.
	BackendKey string
	// Observer, when non-nil, receives optimizer events: one
	// EstimatorEval per priced configuration (memoized or simulated).
	Observer obs.Observer
}

// maxDiscount caps sharing discounts: even a near-perfect cache must not
// price accesses at zero, or the optimizer would treat the source as free.
const maxDiscount = 0.95

func clampDiscount(d float64) float64 {
	if d < 0 || math.IsNaN(d) {
		return 0
	}
	if d > maxDiscount {
		return maxDiscount
	}
	return d
}

func (c Config) withDefaults() Config {
	if c.Grid == 0 {
		c.Grid = 11
	}
	if c.SampleSize == 0 {
		c.SampleSize = 50
	}
	if c.Restarts == 0 {
		c.Restarts = 5
	}
	if c.MaxEvals == 0 {
		c.MaxEvals = 20000
	}
	c.SortedDiscount = clampDiscount(c.SortedDiscount)
	c.RandomDiscount = clampDiscount(c.RandomDiscount)
	return c
}

// discountScenario applies the sharing discounts to a scenario's costs,
// returning the input unchanged when both are zero.
func discountScenario(scn access.Scenario, sd, rd float64) access.Scenario {
	if sd <= 0 && rd <= 0 {
		return scn
	}
	preds := append([]access.PredCost(nil), scn.Preds...)
	for i := range preds {
		if sd > 0 && preds[i].SortedOK {
			preds[i].Sorted = access.Cost(math.Round(float64(preds[i].Sorted) * (1 - sd)))
		}
		if rd > 0 && preds[i].RandomOK {
			preds[i].Random = access.Cost(math.Round(float64(preds[i].Random) * (1 - rd)))
		}
	}
	return access.Scenario{Name: scn.Name + "/discounted", Preds: preds}
}

// Optimize searches the SR/G space for a low-cost configuration for a
// (F, k) query over n objects under the given cost scenario. It first
// fixes Omega (global probe scheduling, following MPro), then runs the
// configured H-scheme against the estimator of a pooled planning arena,
// per Section 7.2's two-stage approximation.
func Optimize(cfg Config, scn access.Scenario, f score.Func, k, n int) (Plan, error) {
	return OptimizeFrom(cfg, scn, f, k, n, nil)
}

// OptimizeFrom is Optimize with a prior: under SchemeHClimb a non-nil
// start, the depths of a plan for a nearby problem, replaces the
// multi-start search with one climb from start. Other schemes, and a nil
// start, plan exactly as Optimize.
func OptimizeFrom(cfg Config, scn access.Scenario, f score.Func, k, n int, start []float64) (Plan, error) {
	if start != nil && len(start) != scn.M() {
		return Plan{}, fmt.Errorf("opt: start has %d depths for %d predicates", len(start), scn.M())
	}
	cfg = cfg.withDefaults()
	scn = discountScenario(scn, cfg.SortedDiscount, cfg.RandomDiscount)
	if cfg.Scheme == SchemeGreedy {
		return Greedy(scn, f, k, n, cfg.Observed)
	}
	a, err := acquireArena(cfg, scn, f, k, n)
	if err != nil {
		return Plan{}, err
	}
	defer a.release()
	return a.searchFrom(cfg, scn, f, start)
}

// search is searchFrom without a start.
func (a *arena) search(cfg Config, scn access.Scenario, f score.Func) (Plan, error) {
	return a.searchFrom(cfg, scn, f, nil)
}

// searchFrom runs the configured H-scheme, HClimb from start when one is
// given, then the optional exhaustive Omega refinement, against the
// problem the arena is bound to.
func (a *arena) searchFrom(cfg Config, scn access.Scenario, f score.Func, start []float64) (Plan, error) {
	est, omega := &a.est, a.omega(scn)
	var plan Plan
	var err error
	switch cfg.Scheme {
	case SchemeNaive:
		plan, err = Naive(est, omega, cfg.Grid, cfg.MaxEvals)
	case SchemeStrategies:
		plan, err = Strategies(est, f, omega, cfg.Grid)
	case SchemeHClimb:
		plan, err = climb(est, omega, cfg.Grid, cfg.Restarts, cfg.Seed, start)
	default:
		return Plan{}, fmt.Errorf("opt: unknown scheme %v", cfg.Scheme)
	}
	if err != nil {
		return Plan{}, err
	}
	if cfg.RefineOmega && scn.M() <= 4 {
		// Stage 2: the best schedule for the chosen depths.
		best, bestCost, oerr := OptimizeOmegaExhaustive(est, plan.H)
		if oerr != nil {
			return Plan{}, oerr
		}
		if bestCost < plan.EstimatedCost {
			plan.Omega, plan.EstimatedCost = best, bestCost
		}
		plan.Evals = int32(est.Evals())
	}
	return plan, nil
}

// EstimateConfiguration prices one (H, Omega) configuration under the
// same model Optimize plans against: the scenario after sharing
// discounts, and the dummy sample warped by cfg.Observed. The adaptive
// layer uses it to price the incumbent plan before a mid-query swap — a
// re-plan only pays off if the candidate beats the incumbent under the
// *same* model, and comparing a fresh estimate against the incumbent's
// original (differently-modelled) estimate would systematically favour
// switching. cfg.Scheme is irrelevant here: pricing a fixed configuration
// is scheme-free.
func EstimateConfiguration(cfg Config, scn access.Scenario, f score.Func, k, n int, h []float64, omega []int) (access.Cost, error) {
	cfg = cfg.withDefaults()
	scn = discountScenario(scn, cfg.SortedDiscount, cfg.RandomDiscount)
	a, err := acquireArena(cfg, scn, f, k, n)
	if err != nil {
		return 0, err
	}
	defer a.release()
	return a.est.Estimate(h, omega)
}

// Optimized is an algo.Algorithm that optimizes before executing: the
// paper's complete pipeline (estimate, search, run the chosen NC
// configuration). The plan chosen at run time is recorded for inspection.
type Optimized struct {
	Cfg      Config
	LastPlan Plan
}

// Name returns the pipeline name with the scheme.
func (o *Optimized) Name() string {
	return "NC-Opt/" + o.Cfg.withDefaults().Scheme.String()
}

// Run optimizes for the problem's scenario and executes the chosen plan.
func (o *Optimized) Run(p *algo.Problem) (*algo.Result, error) {
	scn := p.Session.CurrentScenario()
	plan, err := Optimize(o.Cfg, scn, p.F, p.K, p.Session.N())
	if err != nil {
		return nil, err
	}
	o.LastPlan = plan
	sel, err := algo.NewSRG(plan.H, plan.Omega)
	if err != nil {
		return nil, err
	}
	return (&algo.NC{Sel: sel, Obs: o.Cfg.Observer}).Run(p)
}

// Adaptive is an algo.Algorithm that re-plans mid-query: every Period
// accesses it re-reads the costs currently in force (which dynamic
// scenarios may have shifted) and re-optimizes the SR/G configuration,
// swapping the selector while NC's state carries over — sound because
// SR/G selectors are stateless over the shared score state. It
// demonstrates the adaptivity motivation of Section 1 on dynamic sources.
type Adaptive struct {
	Cfg    Config
	Period int // accesses between re-plans (default 25)
	// Replans counts how many re-optimizations the last run performed.
	Replans int
}

// Name returns "NC-Adaptive".
func (a *Adaptive) Name() string { return "NC-Adaptive" }

// Run executes the adaptive pipeline.
func (a *Adaptive) Run(p *algo.Problem) (*algo.Result, error) {
	period := a.Period
	if period <= 0 {
		period = 25
	}
	a.Replans = 0
	plan, err := Optimize(a.Cfg, p.Session.CurrentScenario(), p.F, p.K, p.Session.N())
	if err != nil {
		return nil, err
	}
	sel, err := algo.NewSRG(plan.H, plan.Omega)
	if err != nil {
		return nil, err
	}
	nc := &algo.NC{Sel: sel, Obs: a.Cfg.Observer}
	accesses := 0
	lastScn := p.Session.CurrentScenario()
	nc.OnAccess = func(_ *state.Table, _ algo.Choice) {
		accesses++
		if accesses%period != 0 {
			return
		}
		cur := p.Session.CurrentScenario()
		if scenarioEqual(cur, lastScn) {
			return // nothing changed; skip the re-plan
		}
		lastScn = cur
		// Seed shifted per re-plan so dummy samples differ across plans
		// only deterministically.
		cfg := a.Cfg
		cfg.Seed += int64(accesses)
		newPlan, err := Optimize(cfg, cur, p.F, p.K, p.Session.N())
		if err != nil {
			return // keep the current plan; re-planning is best-effort
		}
		newSel, err := algo.NewSRG(newPlan.H, newPlan.Omega)
		if err != nil {
			return
		}
		nc.Sel = newSel
		a.Replans++
	}
	return nc.Run(p)
}

func scenarioEqual(a, b access.Scenario) bool {
	if len(a.Preds) != len(b.Preds) {
		return false
	}
	for i := range a.Preds {
		if a.Preds[i] != b.Preds[i] {
			return false
		}
	}
	return true
}
