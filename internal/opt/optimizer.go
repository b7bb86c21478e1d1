package opt

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/score"
)

// Config parameterizes the optimizer. The zero value is usable: HClimb
// over an 11-point grid with a 50-object dummy sample and 5 restarts.
// An engine over a single-node base fills Sample with rows of its own
// data and Cols with a query's columns (topk.NewEngine); the dummy is
// what remains without one.
type Config struct {
	Scheme     Scheme
	Grid       int   // grid points per dimension (default 11)
	SampleSize int   // dummy-sample size when no sample is given (default DefaultSampleSize)
	Restarts   int   // HClimb restarts (default 5)
	Seed       int64 // randomness for HClimb starts and dummy samples
	// Sample optionally supplies real sample objects (Section 7.3); when
	// nil a dummy uniform sample is synthesized, the paper's worst case.
	Sample *data.Dataset
	// Cols selects the columns of Sample a query reads, in the query's
	// order: the scenario's predicate i is Sample's column Cols[i], as
	// access.Option.Cols maps a session's predicates onto its backend's.
	// Nil reads every column in order. Cols without a Sample is an error.
	Cols []int
	// NoWildGuesses mirrors the execution session's setting so simulation
	// runs exercise the same code path (default true).
	DisableNWG bool
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
	// Observer, when non-nil, receives optimizer events: one
	// EstimatorEval per priced configuration (memoized or simulated).
	Observer obs.Observer
}

// DefaultSampleSize is the dummy sample's size when Config.SampleSize is
// zero.
const DefaultSampleSize = 50

// defaultDummyName is SampleName's answer for the default dummy, kept so
// naming it allocates nothing.
var defaultDummyName = dummyName(DefaultSampleSize)

func dummyName(size int) string { return "dummy(" + strconv.Itoa(size) + ")" }

// SampleName names the sample a plan under cfg is searched on: the given
// sample's name, or "dummy(<size>)" for the synthesized uniform one.
func SampleName(cfg Config) string {
	switch {
	case cfg.Sample != nil:
		return cfg.Sample.Name()
	case cfg.SampleSize == 0 || cfg.SampleSize == DefaultSampleSize:
		return defaultDummyName
	}
	return dummyName(cfg.SampleSize)
}

// naiveMeshBudget is the most mesh points SchemeNaive evaluates.
const naiveMeshBudget = 20000

// errColsWithoutSample refuses a column selection with nothing to select
// from: the dummy is synthesized at the scenario's width.
var errColsWithoutSample = errors.New("opt: Config.Cols selects columns of a sample, but Config.Sample is nil")

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
		c.SampleSize = DefaultSampleSize
	}
	if c.Restarts == 0 {
		c.Restarts = 5
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
	if cfg.Cols != nil && cfg.Sample == nil {
		return Plan{}, errColsWithoutSample
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
// given, against the problem the arena is bound to.
func (a *arena) searchFrom(cfg Config, scn access.Scenario, f score.Func, start []float64) (Plan, error) {
	est, omega := &a.est, a.omega(scn)
	switch cfg.Scheme {
	case SchemeNaive:
		return Naive(est, omega, cfg.Grid, naiveMeshBudget)
	case SchemeStrategies:
		return Strategies(est, f, omega, cfg.Grid)
	case SchemeHClimb:
		return climb(est, omega, cfg.Grid, cfg.Restarts, cfg.Seed, start)
	}
	return Plan{}, fmt.Errorf("opt: unknown scheme %v", cfg.Scheme)
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
