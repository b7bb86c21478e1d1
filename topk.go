// Package topk is a cost-based top-k query middleware for Web-style
// sources, reproducing Hwang & Chang's "Optimizing Access Cost for Top-k
// Queries over Web Sources: A Unified Cost-based Approach" (ICDE 2005).
//
// A top-k query (F, k) ranks objects by a monotone scoring function F of
// per-predicate scores that must be gathered from sources through sorted
// and random accesses, each with its own cost. This package's Engine
// optimizes and executes such queries with Framework NC — a dynamic,
// cost-based search over middleware algorithms that unifies and
// generalizes FA, TA, CA, NRA, MPro, Upper, and the Combine family, all of
// which are also available as named baselines.
//
// Quickstart:
//
//	ds, _ := topk.GenerateDataset("uniform", 1000, 2, 42)
//	eng, _ := topk.NewEngine(topk.DataBackend(ds), topk.UniformScenario(2, 1, 10))
//	ans, _ := eng.Run(topk.Query{F: topk.Min(), K: 5})
//	for _, it := range ans.Items {
//	    fmt.Println(it.Obj, it.Score)
//	}
//	fmt.Println("total access cost:", ans.TotalCost())
//
// See examples/ for end-to-end scenarios (including querying live HTTP
// sources via internal/websim) and cmd/topkbench for the experiment
// harness regenerating the paper's evaluation.
package topk

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/adapt"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/score"
	"repro/internal/share"
)

// Re-exported core types. The facade aliases the internal packages' types
// so callers never import repro/internal/... directly.
type (
	// ScoreFunc is a monotone scoring function over predicate scores.
	ScoreFunc = score.Func
	// Dataset is an immutable in-memory database of predicate scores.
	Dataset = data.Dataset
	// Scenario describes per-predicate access capabilities and unit costs.
	Scenario = access.Scenario
	// PredCost is one predicate's capability/cost entry of a Scenario.
	PredCost = access.PredCost
	// CostShift is a dynamic mid-query cost change.
	CostShift = access.CostShift
	// Cost is a fixed-point access cost.
	Cost = access.Cost
	// Ledger summarizes accesses performed and cost accrued.
	Ledger = access.Ledger
	// Item is one ranked answer.
	Item = algo.Item
	// Backend supplies raw access results (in-memory or HTTP).
	Backend = access.Backend
	// Plan is an optimizer-chosen SR/G configuration.
	Plan = opt.Plan
	// OptimizerConfig tunes the cost-based optimizer.
	OptimizerConfig = opt.Config
	// PlanCache memoizes optimizer plans across queries with LRU bounds
	// and singleflight dedup (see WithPlanCache).
	PlanCache = opt.PlanCache
	// PlanCacheStats reports plan-cache hits, misses, and evictions.
	PlanCacheStats = opt.CacheStats
	// Observer receives engine execution events (see WithObserver).
	Observer = obs.Observer
	// TraceSnapshot is a per-query execution trace (see WithTrace).
	TraceSnapshot = obs.TraceSnapshot
	// MetricsRegistry is a metrics registry with Prometheus exposition.
	MetricsRegistry = obs.Registry
	// BreakerSet is a shared set of per-capability circuit breakers (see
	// WithResilience).
	BreakerSet = access.BreakerSet
	// BreakerConfig tunes circuit-breaker thresholds and cooldowns.
	BreakerConfig = access.BreakerConfig
	// Resilience attaches circuit breakers and per-access deadlines to a
	// run (see WithResilience).
	Resilience = access.Resilience
	// SharedAccess is the cross-query access-sharing layer: shared sorted
	// cursors and a score cache over any Backend (see NewSharedAccess).
	SharedAccess = share.Layer
	// SharingOptions tunes a SharedAccess layer.
	SharingOptions = share.Options
	// SharingStats snapshots a sharing layer's effectiveness.
	SharingStats = share.Stats
	// BatchBackend is the capability a backend advertises to resolve many
	// random accesses in one call (the websim client, the store and the
	// cluster coordinator implement it).
	BatchBackend = access.BatchBackend
)

// Observability constructors, re-exported so callers wire metrics without
// importing repro/internal/obs.
var (
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewMetricsObserver registers the engine metric set on a registry and
	// returns the observer feeding it (pass to WithObserver).
	NewMetricsObserver = obs.NewMetrics
	// MultiObserver fans events out to several observers.
	MultiObserver = obs.Multi
	// NewBreakerSet builds a closed circuit-breaker set for m predicates,
	// to be shared across runs via WithResilience.
	NewBreakerSet = access.NewBreakerSet
	// NewPlanCache builds a bounded optimizer plan cache (capacity <= 0
	// selects the default), to be shared across engines via WithPlanCache.
	NewPlanCache = opt.NewPlanCache
	// NewSharedAccess builds a cross-query sharing layer over a backend.
	// The layer is itself the Backend to hand NewEngine: sorted accesses hit
	// its shared per-predicate cursors, random accesses its score cache,
	// where concurrent identical misses share one source access. Share one
	// layer across engines (and services)
	// to amortize accesses across all their queries; per-query ledgers are
	// unaffected, sharing only reduces the accesses that reach the sources.
	// An engine that finds a layer anywhere in its backend stack discounts
	// the optimizer's expected costs by the layer's observed hit rates (see
	// OptimizerConfig.SortedDiscount).
	NewSharedAccess = share.New
)

// Scoring-function constructors.
var (
	// Min returns the minimum scoring function (Query Q1's "min").
	Min = score.Min
	// Max returns the maximum scoring function.
	Max = score.Max
	// Avg returns the arithmetic mean (Query Q2's "avg").
	Avg = score.Avg
	// Product returns the product function.
	Product = score.Product
	// Geometric returns the geometric mean.
	Geometric = score.Geometric
	// Weighted returns a weighted sum with the given weights.
	Weighted = score.Weighted
	// Median returns the lower-median order statistic.
	Median = score.Median
	// OrderStatistic returns the j-th-largest scoring function.
	OrderStatistic = score.OrderStatistic
	// ScoreByName resolves "min", "max", "avg", "product", "geomean",
	// "median".
	ScoreByName = score.ByName
)

// UniformScenario builds a scenario with identical sorted cost cs and
// random cost cr on all m predicates.
func UniformScenario(m int, cs, cr float64) Scenario { return access.Uniform(m, cs, cr) }

// CostFromUnits converts float units (e.g. seconds) to a Cost. It
// rejects negative and non-finite values.
func CostFromUnits(u float64) (Cost, error) { return access.CostFromUnits(u) }

// CostOf converts float units to a Cost for scenario literals. Invalid
// values yield a negative sentinel that Scenario.Validate rejects, so
// mistakes surface at engine construction rather than silently.
func CostOf(u float64) Cost { return access.CostOf(u) }

// GenerateDataset synthesizes a dataset from a named distribution:
// "uniform", "gaussian", "skewed", "correlated", or "anticorrelated".
func GenerateDataset(dist string, n, m int, seed int64) (*Dataset, error) {
	d, err := data.DistributionByName(dist)
	if err != nil {
		return nil, err
	}
	return data.Generate(d, n, m, seed)
}

// DataBackend wraps an in-memory dataset as a Backend.
func DataBackend(ds *Dataset) Backend { return access.DatasetBackend{DS: ds} }

// Query is one top-k request.
type Query struct {
	F ScoreFunc
	K int
	// Cols are the engine's predicates F reads, in F's argument order: F's
	// predicate i is the backend's predicate Cols[i]. Nil means all of
	// them, in order. What the engine is configured with — scenario, cost
	// shifts, breakers, guard — stays in the backend's numbering; what a run
	// reports — items, ledger, trace counts, plan — is in F's.
	Cols []int
}

// Answer is a completed execution. Everything it holds is the caller's:
// items, ledger and plan are copied out of the engine's pooled query state
// into memory of their own, so an Answer stays as it is however many runs
// follow on the same engine. Run copies into a fresh Answer; RunInto copies
// into one the caller owns and reuses, and nothing it leaves there points
// into pooled state either.
type Answer struct {
	// Items are the top-k, best first. Exact is false when the algorithm
	// (e.g. NRA) proves the set without learning exact scores.
	Items []Item
	// Ledger records the accesses performed and the total cost (Eq. 1).
	Ledger Ledger
	// Plan is the optimizer's chosen configuration, when one was used.
	Plan *Plan
	// Elapsed is the simulated elapsed time in cost units for parallel
	// runs (zero for sequential runs, where elapsed equals the cost).
	Elapsed float64
	// Wall is the measured wall-clock time of live (WithLive) runs.
	Wall time.Duration
	// Truncated reports that a WithBudget run exhausted its budget — or a
	// WithResilience run degraded — before proving the answer; Items then
	// holds best-effort candidates.
	Truncated bool
	// Degraded lists machine-readable reasons a WithResilience answer is
	// best-effort rather than exact ("circuit_open:sa:p1",
	// "query_deadline", "no_legal_plan", ...). Empty for exact answers.
	Degraded []string
	// Trace is the per-query execution trace (nil unless WithTrace):
	// phase timings, per-predicate access counts matching the Ledger,
	// refused accesses, and optimizer/executor statistics.
	Trace *TraceSnapshot
}

// TotalCost returns the run's total access cost.
func (a *Answer) TotalCost() Cost { return a.Ledger.TotalCost }

// Engine executes top-k queries against a backend under a cost scenario.
// An Engine is reusable: every Run opens a fresh access session.
type Engine struct {
	backend   Backend
	scn       Scenario
	nwg       bool
	shifts    []CostShift
	planCache *PlanCache
	guard     *adapt.Guard
	// share is the sharing layer NewEngine found in the backend stack
	// (access.As), whose hit rates discount planning.
	share    *share.Layer
	useGuard bool
	// sample is what the optimizer plans on (plansample.go): rows of the
	// engine's own base, every predicate, drawn once by NewEngine and read
	// through each query's columns; nil plans on the dummy.
	sample *data.Dataset

	// pool recycles per-query state (access session, framework scratch and
	// everything a run assembles over them) across Runs and Opens. Pooled
	// state is reset before reuse; nothing an Answer or Page holds points
	// into it, whether Run and Next made it or RunInto and NextInto filled
	// it.
	pool sync.Pool // of *queryState
}

// queryState is the per-query allocation unit the engine recycles: the
// access session, the framework scratch, and everything begin assembles
// per run over them — the validated spec, the SR/G selector, the problem,
// the NC frame, the executor, the plan in force and the page result, whose
// item and ledger buffers every page is written into — so neither Run nor
// Open allocates the pipeline itself. What a caller keeps (items, ledger,
// plan) is copied out of it into memory the caller owns.
type queryState struct {
	sess    *access.Session   //topklint:allow resetcomplete configured by begin (Session.Reset under the run's options) once the spec validates
	scratch algo.Scratch      //topklint:allow resetcomplete re-prepared from the plan by every Open before use
	srg     algo.SRG          //topklint:allow resetcomplete reconfigured by resolvePlan before use
	prob    algo.Problem      //topklint:allow resetcomplete re-armed by build before use
	nc      algo.NC           //topklint:allow resetcomplete rebuilt by build before use
	exec    parallel.Executor //topklint:allow resetcomplete rebuilt by build before use
	plan    Plan              //topklint:allow resetcomplete written by resolvePlan or install before execution.plan points at it
	res     algo.Result       //topklint:allow resetcomplete overwritten by every page before it is read; its item and count buffers are kept for the next
	spec    runSpec
	ex      execution
}

// Reset restores recycled state for a new query: the previous spec and
// execution are dropped (only the scenario-snapshot buffer is kept for
// reuse). Everything else is overwritten before it is read: the session is
// reset under the run's options once they validate, the scratch, selector,
// problem and frames by build.
func (st *queryState) Reset() {
	st.spec = runSpec{}
	st.ex = execution{planScn: st.ex.planScn[:0]}
}

// acquire returns a reset pooled query state, or builds a fresh one.
//
//topklint:hotpath
func (e *Engine) acquire() (*queryState, error) {
	if st, ok := e.pool.Get().(*queryState); ok {
		st.Reset()
		return st, nil
	}
	//topklint:allow hotpathalloc first-use miss: the fresh state is built once, then recycled
	sess, err := access.NewSession(e.backend, e.scn)
	if err != nil {
		return nil, err
	}
	//topklint:allow hotpathalloc first-use miss: the fresh state is built once, then recycled
	return &queryState{sess: sess}, nil
}

// shareDiscounts fills the optimizer's expected-cost discounts from the
// stack's sharing layer's observed (quantized) hit rates — shared
// accesses never reach the sources, so the optimizer should not price
// them at full cost. Explicit discounts in cfg win.
func (e *Engine) shareDiscounts(cfg OptimizerConfig) OptimizerConfig {
	if e.share != nil && cfg.SortedDiscount == 0 && cfg.RandomDiscount == 0 {
		cfg.SortedDiscount, cfg.RandomDiscount = e.share.Stats().Discounts()
	}
	return cfg
}

// optimize resolves a plan into dst through the attached cache, or
// directly, priced under the sharing discounts. A cache hit copies the
// plan into dst's own arrays; an error leaves dst as it was.
func (e *Engine) optimize(dst *Plan, cfg OptimizerConfig, scn Scenario, f ScoreFunc, k, n int) error {
	cfg = e.shareDiscounts(cfg)
	if e.planCache != nil {
		return e.planCache.Load(dst, cfg, scn, f, k, n)
	}
	p, err := opt.Optimize(cfg, scn, f, k, n)
	if err == nil {
		*dst = p
	}
	return err
}

// resolvePlan is the one plan-resolution step every entry point shares
// (Run, Open, page-boundary re-plans, Explain): it points sel at the fixed
// WithNC configuration or at the optimizer's choice — written into dst
// through optimize, so sharing discounts and the plan cache always apply,
// and reported as planned — and does nothing for a named algorithm. The
// optimizer prices preds: the capabilities and costs the session currently
// sees — breaker degradation and cost shifts included, refreshed into the
// execution's own buffer — or, without a session (Explain), the engine's.
// An optimizer plan always passes Reconfigure's validation; only a WithNC
// configuration can fail it.
//
//topklint:hotpath
func (e *Engine) resolvePlan(dst *Plan, sel *algo.SRG, preds []PredCost, spec *runSpec, o obs.Observer, q Query) (planned bool, err error) {
	if spec.algorithm != nil {
		return false, nil
	}
	h, omega := spec.h, spec.omega
	if h == nil {
		cfg := e.planConfig(spec.optCfg, q.Cols)
		cfg.DisableNWG = !e.nwg
		if o != nil {
			cfg.Observer = o
		}
		start := time.Now()
		err := e.optimize(dst, cfg, Scenario{Name: e.scn.Name, Preds: preds}, q.F, q.K, e.backend.N())
		if o != nil {
			o.Observe(obs.Event{Kind: obs.PhaseDone, Label: string(obs.PhaseOptimize), Value: time.Since(start).Seconds()})
		}
		if err != nil {
			return false, err
		}
		h, omega, planned = dst.H, dst.Omega, true
	}
	return planned, sel.Reconfigure(h, omega)
}

// newAdapter wires the adaptive layer's monitor to an execution — the one
// place a WithAdaptive run gets its checkpoint hook. On NC under the
// default pipeline or WithNC the adapter re-plans: checkpoint re-plans go
// through optimize (sharing discounts, plan cache under the
// observation-extended key), the scenario-change probe is the execution's
// own, and install swaps each new plan into the running cursor. TA and
// MPro have no plan degrees of freedom, so their adapter stays
// telemetry-only (divergence checkpoints, no re-plans).
func (e *Engine) newAdapter(x *execution) *adapt.Adapter {
	spec, sess, q := x.spec, x.st.sess, x.q
	a := &adapt.Adapter{
		Mon:             adapt.NewMonitor(adapt.Config{Period: spec.period}),
		Base:            spec.optCfg,
		Obs:             x.obsv,
		Scenario:        sess.CurrentScenario,
		ScenarioChanged: x.scenarioChanged,
	}
	a.Base = e.planConfig(a.Base, q.Cols)
	a.Base.DisableNWG = !e.nwg
	a.Base.Observer = x.obsv
	if spec.algorithm != nil {
		return a
	}
	a.PlanFunc = func(cfg OptimizerConfig) (Plan, error) {
		var p Plan
		err := e.optimize(&p, cfg, sess.CurrentScenario(), q.F, q.K, sess.N())
		return p, err
	}
	// EstimateFunc prices the incumbent plan under the re-plan's
	// observation-warped model (same discounts as PlanFunc) so the adapter
	// only swaps plans whose modelled advantage clears the switching cost.
	a.EstimateFunc = func(cfg OptimizerConfig, h []float64, omega []int) (access.Cost, error) {
		return opt.EstimateConfiguration(e.shareDiscounts(cfg), sess.CurrentScenario(), q.F, q.K, sess.N(), h, omega)
	}
	a.ApplyFunc = x.install
	if x.plan != nil {
		// A copy: re-plans rewrite the state's plan in place.
		a.Incumbent.CopyFrom(x.plan)
	}
	return a
}

// SharingStats reports the cumulative counters of the sharing layer in the
// engine's backend stack (the zero Stats when there is none).
func (e *Engine) SharingStats() SharingStats {
	if e.share == nil {
		return SharingStats{}
	}
	return e.share.Stats()
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithoutNoWildGuesses lifts the rule that random access requires the
// object to have been seen by a sorted access first.
func WithoutNoWildGuesses() EngineOption { return func(e *Engine) { e.nwg = false } }

// WithCostShifts installs dynamic mid-query cost changes (for adaptivity
// studies; each Run replays them afresh). A shift names a backend
// predicate and fires on whichever column of a query reads it.
func WithCostShifts(shifts ...CostShift) EngineOption {
	return func(e *Engine) { e.shifts = append(e.shifts, shifts...) }
}

// WithPlanCache attaches a plan cache: Runs that would invoke the
// cost-based optimizer first consult it, keyed by the full planning
// problem (current scenario capabilities and costs, scoring function, k,
// n, optimizer config). Identical queries then share one optimization —
// including concurrent ones, which dedup to a single search. A cache may
// be shared across engines. Runs against a breaker-degraded scenario key
// differently, so degradation invalidates cached plans automatically.
func WithPlanCache(c *PlanCache) EngineOption {
	return func(e *Engine) { e.planCache = c }
}

// WithContractGuard wraps the engine's backend — whatever stack it was
// handed, a sharing layer included — with the source contract guard: every response is vetted — descending sorted order, finite
// scores in [0,1], distinct ids per stream, random results consistent with
// sorted sightings — before it can reach any session. Violating accesses
// fail without being billed; under WithResilience the breakers quarantine
// a persistently lying capability exactly like a failing one, so answers
// degrade honestly (Truncated + Degraded) instead of going silently wrong.
// GuardViolations reports the cumulative counts.
func WithContractGuard() EngineOption {
	return func(e *Engine) { e.useGuard = true }
}

// NewEngine validates the scenario against the backend and builds an
// engine.
func NewEngine(b Backend, scn Scenario, opts ...EngineOption) (*Engine, error) {
	if b == nil {
		return nil, fmt.Errorf("topk: engine requires a backend")
	}
	e := &Engine{backend: b, scn: scn, nwg: true}
	for _, o := range opts {
		o(e)
	}
	if err := scn.Validate(b.M()); err != nil {
		return nil, err
	}
	if e.useGuard {
		e.guard = adapt.NewGuard(b)
		e.backend = e.guard
	}
	// Resolved once: the stack below an engine never changes.
	e.share, _ = access.As[*share.Layer](b)
	var err error
	if e.sample, err = drawPlanSample(b); err != nil {
		return nil, fmt.Errorf("topk: drawing the planning sample: %w", err)
	}
	return e, nil
}

// GuardViolations reports the contract guard's cumulative per-reason
// violation counts (nil without WithContractGuard). Reason keys are the
// obs.ViolationReasons vocabulary: "unsorted", "nan", "range", "dup",
// "inconsistent".
func (e *Engine) GuardViolations() map[string]int {
	if e.guard == nil {
		return nil
	}
	return e.guard.Violations()
}

// runSpec captures the execution strategy chosen through RunOptions.
type runSpec struct {
	algorithm  algo.Algorithm // nil = NC (optimized, or fixed by h)
	err        error          // an option that could not be resolved (unknown algorithm name)
	h          []float64      // fixed NC configuration
	omega      []int
	optCfg     OptimizerConfig
	adaptive   bool
	period     int
	parallelB  int
	liveB      int
	epsilon    float64
	budget     float64
	budgetCost Cost // budget in fixed point, set by newSpec
	hasBudget  bool
	ctx        context.Context
	observer   obs.Observer
	trace      bool
	resilience *access.Resilience
}

// mode is one bit per execution mode a run can select. The set a run
// selects is checked against the incompatible table before anything is
// acquired or billed.
type mode uint16

const (
	modeResumable  mode = 1 << iota // WithAlgorithm naming TA or MPro
	modeBatch                       // WithAlgorithm naming any other baseline
	modeNC                          // WithNC
	modeAdaptive                    // WithAdaptive
	modeParallel                    // WithParallel
	modeLive                        // WithLive
	modeApprox                      // WithApproximation
	modeBudget                      // WithBudget
	modeResilience                  // WithResilience
	modeShifts                      // engine built WithCostShifts
	modeCursor                      // entered through Engine.Open

	modeNamed = modeResumable | modeBatch
)

// modeNames spells each mode bit, in bit order, for error messages; a set of
// several modes prints as its lowest bit.
var modeNames = [...]string{
	"WithAlgorithm (TA, MPro)", "WithAlgorithm (batch-only baseline)", "WithNC", "WithAdaptive",
	"WithParallel", "WithLive", "WithApproximation", "WithBudget", "WithResilience",
	"WithCostShifts", "Engine.Open",
}

func (m mode) String() string { return modeNames[bits.TrailingZeros16(uint16(m))] }

// incompatible is the mode-compatibility table (DESIGN.md §10): a run
// selecting mode a together with any mode in b is rejected; every pair not
// listed composes. Run and Open consult the same table, so the two entry
// points cannot drift.
var incompatible = [...]struct {
	a, b mode
	why  string
}{
	{modeNC, modeNamed,
		"a named baseline has no SR/G configuration to fix"},
	{modeApprox, modeNamed | modeAdaptive | modeParallel | modeLive,
		"approximation relaxes the emission rule of sequential NC under its initial plan only"},
	{modeParallel | modeLive, modeNamed | modeAdaptive,
		"the bounded-concurrency executor dispatches one frozen SR/G selector"},
	{modeParallel, modeLive,
		"one executor runs against simulated time or real time, not both"},
	{modeAdaptive, modeBatch,
		"a batch-only baseline exposes no per-access hook to monitor"},
	{modeCursor, modeBatch | modeParallel | modeLive,
		"only NC, TA and MPro suspend between pages"},
}

// newSpec folds the options into r (a reset spec) and passes it through the
// single gate every execution clears before its session is configured or
// any access billed: option values first, then the mode combination
// against the incompatible table.
func (e *Engine) newSpec(r *runSpec, opts []RunOption, cursor bool) error {
	for _, o := range opts {
		o(r)
	}
	if r.err != nil {
		return r.err
	}
	if r.epsilon < 0 {
		return fmt.Errorf("topk: approximation epsilon must be >= 0, got %g", r.epsilon)
	}
	if r.hasBudget {
		if r.budget <= 0 {
			return fmt.Errorf("topk: budget must be positive, got %g", r.budget)
		}
		var err error
		if r.budgetCost, err = access.CostFromUnits(r.budget); err != nil {
			return fmt.Errorf("topk: budget: %w", err)
		}
	}
	resumable := false
	switch r.algorithm.(type) {
	case algo.TA, algo.MPro:
		resumable = true
	}
	var m mode
	for i, on := range [...]bool{ // in bit order
		resumable, r.algorithm != nil && !resumable, r.h != nil, r.adaptive,
		r.parallelB > 0, r.liveB > 0, r.epsilon > 0, r.hasBudget, r.resilience != nil,
		len(e.shifts) > 0, cursor,
	} {
		if on {
			m |= 1 << i
		}
	}
	for _, row := range incompatible {
		if m&row.a != 0 && m&row.b != 0 {
			return fmt.Errorf("topk: %v cannot be combined with %v: %s", m&row.a, m&row.b, row.why)
		}
	}
	return nil
}

// sessionOption is the session configuration a validated spec asks for
// over the query's columns: one value, so configuring the pooled session
// allocates nothing.
func (e *Engine) sessionOption(spec *runSpec, o obs.Observer, cols []int) access.Option {
	return access.Option{
		AllowWildGuesses: !e.nwg,
		Shifts:           e.shifts,
		Budget:           spec.budgetCost,
		Budgeted:         spec.hasBudget,
		Context:          spec.ctx,
		Observer:         o,
		Resilience:       spec.resilience,
		Cols:             cols,
	}
}

// resolveObserver combines the user observer with the run's trace (when
// requested) into the single observer threaded through the stack. The
// returned trace is nil unless WithTrace was set; the observer is nil
// when nothing is watching, keeping the default path at zero overhead.
func (r *runSpec) resolveObserver() (obs.Observer, *obs.QueryTrace) {
	if !r.trace {
		return r.observer, nil
	}
	tr := obs.NewQueryTrace()
	if r.observer == nil {
		return tr, tr
	}
	return obs.Multi(r.observer, tr), tr
}

// snapshotTrace renders a run's trace for its answer (nil without
// WithTrace).
func snapshotTrace(tr *obs.QueryTrace) *TraceSnapshot {
	if tr == nil {
		return nil
	}
	snap := tr.Snapshot()
	return &snap
}

// RunOption selects how a query is executed. Which options compose is one
// table, in DESIGN.md §10 (the incompatible table in this file); Run and
// Open both reject any other combination before billing an access.
type RunOption func(*runSpec)

// WithAlgorithm runs a named baseline: "FA", "TA", "CA", "NRA", "MPro",
// "Upper", "Quick-Combine", or "Stream-Combine". TA and MPro are
// resumable (Open accepts them); the others are batch-only.
func WithAlgorithm(name string) RunOption {
	return func(r *runSpec) { r.algorithm, r.err = algo.ByName(name) }
}

// WithNC runs Framework NC with a fixed SR/G configuration: depths h (one
// per predicate, in score space) and probe schedule omega (nil = index
// order), bypassing the optimizer.
func WithNC(h []float64, omega []int) RunOption {
	return func(r *runSpec) { r.h, r.omega = h, omega }
}

// WithOptimizer customizes the cost-based optimizer used by the default
// execution mode.
func WithOptimizer(cfg OptimizerConfig) RunOption {
	return func(r *runSpec) { r.optCfg = cfg }
}

// WithAdaptive makes the execution self-correcting: every period accesses
// (period <= 0 takes the adaptive layer's default) a checkpoint compares
// each source's observed behaviour — sorted-stream descent slopes,
// random-access score means, the unseen-object frontier — against the
// plan's statistical assumptions, and past a divergence threshold the
// query re-plans mid-flight: the optimizer re-runs with the quantized
// observations folded into its sample (and into the plan-cache key, so
// repeat re-plans are cache hits), and the new SR/G configuration swaps in
// while all paid-for score state carries over. When the divergence is
// extreme the estimator's sample is flagged stale and the re-plan routes
// to the statistics-free greedy planner instead. Scenario changes (cost
// shifts, breaker flips) also trigger checkpoint re-plans. On TA and MPro,
// which have no plan to change, the monitor attaches telemetry-only.
func WithAdaptive(period int) RunOption {
	return func(r *runSpec) { r.adaptive, r.period = true, period }
}

// WithParallel executes under the bounded-concurrency executor with at most
// b concurrent accesses against simulated time — each access occupies a
// slot for its unit cost, and the answer's Elapsed field reports the
// simulated clock; the fixed or optimized plan's selector drives dispatch.
func WithParallel(b int) RunOption {
	return func(r *runSpec) { r.parallelB = b }
}

// WithLive is WithParallel against real time: the same executor over the
// same access session — so budgets, resilience and cost shifts compose with
// it — performing up to b backend requests at once in goroutines, for
// engines whose backend is a live source such as the HTTP web-source
// client (it must be safe for concurrent use). The answer's Wall field
// reports measured time.
func WithLive(b int) RunOption {
	return func(r *runSpec) { r.liveB = b }
}

// WithBudget caps the run's total access cost (in cost units). NC-based
// execution turns anytime: when the budget runs out the answer holds the
// best current candidates and Truncated is set. Named baselines are not
// anytime and fail once the budget is hit.
func WithBudget(units float64) RunOption {
	return func(r *runSpec) { r.budget, r.hasBudget = units, true }
}

// WithContext bounds the run with a context: cancelling it aborts the
// execution and any in-flight backend requests. The default is
// context.Background().
func WithContext(ctx context.Context) RunOption {
	return func(r *runSpec) { r.ctx = ctx }
}

// WithObserver streams the run's execution events — accesses performed
// and refused, phase timings, optimizer estimator evaluations, framework
// iterations, executor concurrency — into the observer. Performed accesses
// and framework iterations arrive folded, once per page. Combine with a
// registry-backed observer (NewMetricsObserver) for service metrics.
// Without WithObserver or WithTrace the engine emits nothing and pays no
// instrumentation cost.
func WithObserver(o Observer) RunOption {
	return func(r *runSpec) { r.observer = o }
}

// WithTrace records a per-query execution trace, returned in the
// Answer's Trace field: the production analogue of the session's access
// ledger, extended with phase timings and engine statistics. Composes
// with WithObserver (both sinks receive every event).
func WithTrace() RunOption {
	return func(r *runSpec) { r.trace = true }
}

// WithResilience makes the run fault-tolerant: backend failures are
// absorbed instead of failing the query, consecutive failures open the
// attached circuit breakers (flipping the capability off in the current
// scenario, so the framework re-plans against the degraded scenario), and
// each access is bounded by the attachment's AccessTimeout. When
// degradation leaves no way to prove the exact answer, the run returns the
// best current candidates with Truncated set and the reasons in the
// Answer's Degraded field — the same anytime contract as WithBudget.
// Share one BreakerSet across runs so breaker state carries across
// queries.
func WithResilience(r *Resilience) RunOption {
	return func(spec *runSpec) { spec.resilience = r }
}

// WithApproximation relaxes the query to (1+epsilon)-approximation: every
// returned object u is guaranteed (1+epsilon)*F(u) >= F(v) for every
// object v left out, usually at a fraction of the exact cost.
// Approximately-emitted items carry Exact=false and their final lower
// bound as Score.
func WithApproximation(epsilon float64) RunOption {
	return func(r *runSpec) { r.epsilon = epsilon }
}

// execution is one query's pipeline, assembled once by begin: pooled
// state, session, resolved plan, pager and adaptive monitor. Run is begin →
// next(K) → close on it; Open hands the same value out behind a Cursor. It
// lives inside its queryState, so building one allocates nothing.
type execution struct {
	eng  *Engine
	st   *queryState // pooled session, scratch and per-run values the run executes on
	q    Query
	spec *runSpec // &st.spec
	obsv Observer
	tr   *obs.QueryTrace

	// pager is the suspended run (NC, TA or MPro cursor); nc is the same
	// cursor when it is NC-shaped (score-range paging, plan swaps). A
	// batch-only run — a baseline without a resumable form, the
	// bounded-concurrency executor — has no pager: runBatch is its single
	// page.
	pager algo.Pager
	nc    *algo.Cursor

	// plan is the optimizer's SR/G configuration in force: &st.plan once
	// resolvePlan or an adaptive install wrote it, nil under WithNC until
	// then and for named algorithms. planGen counts its changes, so a
	// Cursor copies each plan out once. planScn is the scenario it was made
	// against, for change detection.
	plan    *Plan
	planGen int
	planScn []PredCost
	elapsed float64       // simulated elapsed time of a WithParallel run
	wall    time.Duration // measured elapsed time of a WithLive run
}

// begin assembles the execution for a query — the only place the options
// are validated, pooled state drawn and its session configured, the plan
// resolved, the pager built and the adaptive monitor attached. Everything
// it assembles lives in the pooled queryState. Every failure returns the
// state.
//
//topklint:hotpath
func (e *Engine) begin(q Query, opts []RunOption, cursor bool) (*execution, error) {
	st, err := e.acquire()
	if err != nil {
		return nil, err
	}
	spec := &st.spec
	if err := e.newSpec(spec, opts, cursor); err != nil {
		e.pool.Put(st)
		return nil, err
	}
	//topklint:allow hotpathalloc WithTrace runs only: the trace and its fan-out to the caller's observer
	o, tr := spec.resolveObserver()
	if err := st.sess.Reset(e.sessionOption(spec, o, q.Cols)); err != nil {
		e.pool.Put(st)
		return nil, err
	}
	x := &st.ex
	x.eng, x.st, x.q, x.spec, x.obsv, x.tr = e, st, q, spec, o, tr
	if err := x.build(); err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

// build resolves the plan and constructs the pager over the session, on
// the state's own selector, problem and frames.
//
//topklint:hotpath
func (x *execution) build() error {
	st, spec := x.st, x.spec
	st.prob.Session = st.sess
	if err := st.prob.Rearm(x.q.F, x.q.K); err != nil {
		return err
	}
	x.scenarioChanged() // anchors planScn: the scenario the plan is made against
	planned, err := x.eng.resolvePlan(&st.plan, &st.srg, x.planScn, spec, x.obsv, x.q)
	if err != nil {
		return err
	}
	if planned {
		x.plan = &st.plan
	}
	var mon algo.AccessObserver
	if spec.adaptive {
		mon = x.eng.newAdapter(x)
	}
	switch alg := spec.algorithm.(type) {
	case nil:
		if b := max(spec.parallelB, spec.liveB); b > 0 {
			st.exec = parallel.Executor{B: b, Sel: &st.srg, Live: spec.liveB > 0, Obs: x.obsv}
			return nil
		}
		st.nc = algo.NC{Sel: &st.srg, Epsilon: spec.epsilon, Obs: x.obsv, Monitor: mon}
		x.nc, err = st.nc.Open(&st.prob, &st.scratch)
	case algo.TA:
		var cur *algo.TACursor
		if cur, err = alg.Open(&st.prob); err == nil {
			cur.Monitor = mon
			x.pager = cur
		}
		return err
	case algo.MPro:
		alg.Monitor = mon
		x.nc, err = alg.Open(&st.prob, &st.scratch)
	default:
		return nil // a batch-only baseline: runBatch
	}
	if x.nc != nil {
		x.pager = x.nc
	}
	return err
}

// next produces one page into the state's page result: it re-plans first
// if the scenario moved since the plan was made, then resumes the pager for
// delta more answers — or, when ranged, for every remaining answer scoring
// at least tau.
func (x *execution) next(delta int, tau float64, ranged bool) (*algo.Result, error) {
	x.replan()
	start := time.Now()
	res := &x.st.res
	var err error
	switch {
	case ranged:
		err = x.nc.PageUntil(res, tau)
	case x.pager != nil:
		err = x.pager.Page(res, delta)
	default:
		err = x.runBatch(res)
	}
	// Once per page, before any trace is read, failed pages included.
	x.st.sess.Fold()
	if x.obsv != nil {
		x.obsv.Observe(obs.Event{Kind: obs.PhaseDone, Label: string(obs.PhaseExecute), Value: time.Since(start).Seconds()})
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runBatch runs a batch-only execution as its single page: a named
// baseline without a resumable form, or the bounded-concurrency executor.
func (x *execution) runBatch(res *algo.Result) error {
	st := x.st
	if alg := x.spec.algorithm; alg != nil {
		r, err := alg.Run(&st.prob)
		if err != nil {
			return err
		}
		setResult(res, r)
		return nil
	}
	start := time.Now()
	r, err := st.exec.Run(x.spec.ctx, &st.prob, &st.scratch)
	if err != nil {
		return err
	}
	if st.exec.Live {
		x.wall = time.Since(start)
	} else {
		x.elapsed = r.Elapsed
	}
	setResult(res, &r.Result)
	return nil
}

// setResult writes a batch run's result into the state's page result,
// keeping the page result's own storage for the pages of later runs.
func setResult(res, r *algo.Result) {
	res.Items = append(res.Items[:0], r.Items...)
	res.Ledger.CopyFrom(r.Ledger)
	res.Truncated, res.Degraded = r.Truncated, r.Degraded
}

// scenarioChanged reports, once per change, that the access scenario moved
// (breaker flips, cost shifts) since the plan in force was made. The
// page-boundary re-plan and the adaptive monitor's checkpoints share it, so
// one change is re-planned once.
func (x *execution) scenarioChanged() (changed bool) {
	x.planScn, changed = x.st.sess.RefreshPreds(x.planScn)
	return changed
}

// replan re-optimizes an optimizer-planned NC execution when the access
// scenario changed since the plan was made (the mid-query scenario-change
// machinery, applied at page boundaries) — through the plan cache, which
// keys on the scenario and so re-keys automatically. The preserved score
// state stays valid — which access to perform next is pure policy — so the
// run continues under the new plan, which the cursor's selector now points
// at, without repeating work. A scenario that can no longer be planned
// keeps the old plan; the framework's own degradation absorbs it.
func (x *execution) replan() {
	if x.nc == nil || x.spec.h != nil || x.spec.algorithm != nil || !x.scenarioChanged() {
		return
	}
	if _, err := x.eng.resolvePlan(&x.st.plan, &x.st.srg, x.planScn, x.spec, x.obsv, x.q); err != nil {
		return
	}
	x.plan = &x.st.plan
	x.planGen++
	if x.obsv != nil {
		x.obsv.Observe(obs.Event{Kind: obs.DegradedReplan, Label: "scenario_change"})
	}
}

// install swaps an adaptive checkpoint's plan into the running cursor,
// whose selector is the state's own; all paid-for state carries over.
func (x *execution) install(p Plan) error {
	if err := x.st.srg.Reconfigure(p.H, p.Omega); err != nil {
		return err
	}
	x.st.plan.CopyFrom(&p)
	x.plan = &x.st.plan
	x.planGen++
	return nil
}

// close ends the run and returns the pooled state to the engine. The
// session folds its ledger into the observers, so a run that failed
// mid-page still reports its accesses, and lets go of the run's context
// first — its access deadline is re-pointed, not dropped, and what its
// windows read ahead goes back to the backend — so nothing pooled stays
// tied to the caller's request.
func (x *execution) close() {
	if x.pager != nil {
		x.pager.Close()
	}
	x.st.sess.Fold()
	x.st.sess.Bind(nil)
	x.eng.pool.Put(x.st)
}

// Run executes a query. By default it runs the full cost-based pipeline:
// optimize an SR/G configuration for this engine's scenario (HClimb over a
// dummy sample unless configured otherwise), then execute Framework NC
// with it. Whatever the options select, a run is the single full page of
// the execution Open would suspend. Run is RunInto a fresh Answer, whose
// plan copy shares the answer's allocation: with the items, the ledger's
// one count array and the plan's two slices that is all a run allocates
// (TestRunAllocGate).
func (e *Engine) Run(q Query, opts ...RunOption) (*Answer, error) {
	box := new(struct {
		ans  Answer
		plan Plan
	})
	box.ans.Plan = &box.plan
	return fresh(&box.ans, e.RunInto(&box.ans, q, opts...))
}

// RunInto is Run writing the answer into dst, which the caller owns: every
// field is overwritten, and the items, the ledger's counts and — when dst
// already points at one — the plan are copied into dst's own storage,
// reusing its capacity, so a warm RunInto into a reused Answer allocates
// nothing (TestIntoAllocGate). Nothing in dst points into the engine's
// pooled state. A run without a plan sets dst.Plan to nil; to keep a
// plan's storage across such runs, point dst.Plan at it before each call.
// Degraded and Trace are the run's own, as in Run. On error dst is left as
// it was.
func (e *Engine) RunInto(dst *Answer, q Query, opts ...RunOption) error {
	x, err := e.begin(q, opts, false)
	if err != nil {
		return err
	}
	defer x.close()
	res, err := x.next(q.K, 0, false)
	if err != nil {
		return err
	}
	dst.Items = append(dst.Items[:0], res.Items...)
	dst.Ledger.CopyFrom(res.Ledger)
	dst.Elapsed, dst.Wall = x.elapsed, x.wall
	dst.Truncated, dst.Degraded = res.Truncated, res.Degraded
	dst.Trace = snapshotTrace(x.tr)
	switch {
	case x.plan == nil:
		dst.Plan = nil
	case dst.Plan == nil:
		dst.Plan = new(Plan)
		fallthrough
	default:
		dst.Plan.CopyFrom(x.plan)
	}
	return nil
}

// fresh returns v, or nil when err is set: Run and the Cursor's pages hand
// out what their Into forms filled only when it was filled.
func fresh[T any](v *T, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

// ErrCursorClosed reports a page request on a closed cursor.
var ErrCursorClosed = algo.ErrCursorClosed

// Page is one batch of answers from a resumable Cursor. Everything it holds
// is the caller's: nothing points into the cursor's pooled state, so a
// Page stays as it is after further pages and after Close. Next and
// NextUntil copy into a fresh Page; NextInto and NextUntilInto copy into
// one the caller owns and reuses, on the same terms.
type Page struct {
	// Items are the page's new answers, best first — only the answers this
	// Next/NextUntil call proved, never earlier pages'.
	Items []Item
	// Ledger is the cursor's cumulative access ledger: successive pages
	// show monotone cost, and the final page's ledger is byte-identical to
	// a fresh run of the total depth.
	Ledger Ledger
	// Truncated reports the cursor degraded to anytime draining (budget
	// exhausted, or resilience ran out of legal plans); sticky across
	// pages.
	Truncated bool
	// Degraded lists machine-readable reasons a truncated page is
	// best-effort ("circuit_open:sa:p1", "query_deadline", ...).
	Degraded []string
	// Exhausted reports every object has been emitted; further pages are
	// empty and access-free.
	Exhausted bool
	// Plan is the SR/G configuration in force while this page was
	// produced (nil under WithNC or named algorithms). Re-planning on a
	// scenario change between pages replaces it. Pages produced under one
	// plan share one read-only copy of it, the one Cursor.Plan returns.
	Plan *Plan
}

// Cursor is a suspended query execution: the per-query score state —
// table, candidate queue, access session ledger — stays alive between
// pages, so deepening k -> k+delta resumes exactly where the last page
// stopped and never re-pays for accesses already performed. Cursors draw
// their state from the engine's pool; Close returns it, after which pages
// fail and the accessors report zero values. A Cursor is safe for
// serialized use from multiple goroutines (an internal mutex orders pages)
// but pages cannot be produced concurrently.
type Cursor struct {
	mu sync.Mutex
	x  *execution // nil once closed: the pooled state is back with the engine
	tr *obs.QueryTrace
	// plan is the caller-owned copy of the plan in force, made once per
	// plan generation (planGen) and never written after it is handed out.
	// The first generation's is first, whose H and Ω are firstH and
	// firstOmega up to their length; a re-plan's is a new Plan.
	plan       *Plan
	planGen    int
	first      Plan
	firstH     [4]float64
	firstOmega [4]int
}

// Open suspends a query as a resumable cursor: the first Next(k) performs
// exactly the accesses Run with K=k would, and each further Next(delta)
// deepens to k+delta at only the marginal cost. The query's K sizes the
// optimizer's plan (how deep the configuration expects to go); paging may
// run past it. Open takes the options Run takes and validates them
// against the same table (DESIGN.md §10); the concurrent executors and
// baselines other than TA and MPro are batch-only. Rebind WithContext per
// page with Bind.
func (e *Engine) Open(q Query, opts ...RunOption) (*Cursor, error) {
	x, err := e.begin(q, opts, true)
	if err != nil {
		return nil, err
	}
	return &Cursor{x: x, tr: x.tr}, nil
}

// Next deepens the query by delta answers: the cursor resumes where the
// previous page stopped and performs only the accesses needed to prove
// the next delta. A page shorter than delta means exhaustion or (with
// Truncated set) a degraded anytime fill. If the access scenario changed
// since the last page — a breaker flipped mid- or between pages — an
// optimizer-planned cursor first re-plans against the current scenario on
// the preserved state. Next is NextInto a fresh Page.
func (c *Cursor) Next(delta int) (*Page, error) {
	p := new(Page)
	return fresh(p, c.NextInto(p, delta))
}

// NextInto is Next writing the page into dst, which the caller owns: every
// field is overwritten, and the items and the ledger's counts are copied
// into dst's own storage, reusing its capacity, so a warm NextInto into a
// reused Page allocates nothing (TestIntoAllocGate). Nothing in dst points
// into the cursor's pooled state; its Plan is the read-only copy
// Cursor.Plan returns. On error dst is left as it was.
func (c *Cursor) NextInto(dst *Page, delta int) error { return c.page(dst, delta, 0, false) }

// NextUntil is score-range paging: it emits every remaining answer
// provably scoring at least tau, best first, and suspends — without
// consuming the boundary candidate — once no remaining object can reach
// tau. Ordinal paging (Next) and further NextUntil calls with lower
// thresholds continue from exactly that point. Only NC-shaped cursors
// (default, WithNC, MPro) support it. NextUntil is NextUntilInto a fresh
// Page.
func (c *Cursor) NextUntil(tau float64) (*Page, error) {
	p := new(Page)
	return fresh(p, c.NextUntilInto(p, tau))
}

// NextUntilInto is NextUntil writing the page into dst, as NextInto is to
// Next.
func (c *Cursor) NextUntilInto(dst *Page, tau float64) error { return c.page(dst, 0, tau, true) }

// page produces one page and copies it into dst.
func (c *Cursor) page(dst *Page, delta int, tau float64, ranged bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	x := c.x
	if x == nil {
		return algo.ErrCursorClosed
	}
	if ranged && x.nc == nil {
		return fmt.Errorf("topk: score-range paging requires an NC-based cursor (default, WithNC, or MPro)")
	}
	res, err := x.next(delta, tau, ranged)
	if err != nil {
		return err
	}
	dst.Items = append(dst.Items[:0], res.Items...)
	dst.Ledger.CopyFrom(res.Ledger)
	dst.Truncated, dst.Degraded = res.Truncated, res.Degraded
	dst.Exhausted = x.pager.Exhausted()
	dst.Plan = c.planCopy()
	return nil
}

// planCopy returns the caller-owned copy of the plan in force, copying it
// out of the pooled state the first time a plan is asked for (mu held,
// cursor open).
func (c *Cursor) planCopy() *Plan {
	x := c.x
	if x.plan == nil {
		return nil
	}
	if c.plan == nil || c.planGen != x.planGen {
		p := &c.first
		if c.plan == nil {
			p.H, p.Omega = c.firstH[:0], c.firstOmega[:0]
		} else {
			p = new(Plan)
		}
		p.CopyFrom(x.plan)
		c.plan, c.planGen = p, x.planGen
	}
	return c.plan
}

// Bind re-points the cursor's context for subsequent pages: each page of
// a server-side cursor gets its own deadline while the session — and the
// paid-for state behind it — survives between requests. The session's
// access deadline follows ctx without being rebuilt. Nil resets to
// context.Background().
func (c *Cursor) Bind(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.x != nil {
		c.x.st.sess.Bind(ctx)
	}
}

// Emitted reports the total answers produced across all pages.
func (c *Cursor) Emitted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.x == nil {
		return 0
	}
	return c.x.pager.Emitted()
}

// Exhausted reports whether every object has been emitted.
func (c *Cursor) Exhausted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.x != nil && c.x.pager.Exhausted()
}

// Cost reports the access cost accrued so far.
func (c *Cursor) Cost() Cost { return c.Ledger().TotalCost }

// Ledger snapshots the cumulative accesses performed so far.
func (c *Cursor) Ledger() Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.x == nil {
		return Ledger{}
	}
	return c.x.pager.Ledger()
}

// Plan returns the SR/G configuration currently in force (nil under
// WithNC or named algorithms, and once closed). The plan is the caller's
// and never changes: it is the copy this plan's pages share, and a re-plan
// hands out a new one.
func (c *Cursor) Plan() *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.x == nil {
		return nil
	}
	return c.planCopy()
}

// Trace snapshots the cursor's cumulative execution trace (nil unless
// opened with WithTrace). Successive snapshots grow with each page; the
// access counts always match the cumulative Ledger.
func (c *Cursor) Trace() *TraceSnapshot { return snapshotTrace(c.tr) }

// Close ends the execution and returns the cursor's pooled state (session
// and framework scratch) to the engine. Idempotent; pages after Close fail
// with algo.ErrCursorClosed.
func (c *Cursor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.x != nil {
		c.x.close()
		c.x = nil
	}
	return nil
}

// Explain runs the cost-based optimizer for a query without executing it:
// the query-planning API. It returns the SR/G configuration Run would
// execute on this engine right now — priced under the same sharing
// discounts and storage calibration, through the same plan cache — and
// its estimated total access cost. No source access is performed (the
// estimator works on samples).
func (e *Engine) Explain(q Query, cfg OptimizerConfig) (Plan, error) {
	scn, err := access.ProjectScenario(e.scn, q.Cols)
	if err != nil {
		return Plan{}, err
	}
	if err := score.Validate(q.F, scn.M()); err != nil {
		return Plan{}, err
	}
	if q.K <= 0 {
		return Plan{}, fmt.Errorf("topk: retrieval size must be positive, got %d", q.K)
	}
	var (
		plan Plan
		sel  algo.SRG
	)
	if _, err := e.resolvePlan(&plan, &sel, scn.Preds, &runSpec{optCfg: cfg}, nil, q); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// TopKOracle computes the exact answer by brute force over a dataset —
// free of access costs, for verification and testing.
func TopKOracle(ds *Dataset, f ScoreFunc, k int) []Item {
	ranked := ds.TopK(f.Eval, k)
	items := make([]Item, len(ranked))
	for i, r := range ranked {
		items[i] = Item{Obj: r.Obj, Score: r.Score, Exact: true}
	}
	return items
}
