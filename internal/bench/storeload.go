package bench

// Disk-store workload (BENCH_store.json): a large Zipf dataset written
// once to store format (cached across runs — the CI storage job restores
// the directory via actions/cache), IO-calibrated in warm and cold
// modes, then driven through the paper's central claim with the
// assumption removed: the optimizer planning under the *measured*
// (cs, cr) must bill less than the same optimizer planning under the
// uniform-cost assumption, when both plans execute against the store's
// real physics. cmd/topkbench -store drives this from the CLI;
// BenchmarkStoreAccess and TestStoreGate (store_bench_test.go) pin the
// committed baseline.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/score"
	"repro/internal/store"
)

// StoreCacheEnv names the environment variable that roots the dataset
// cache. The CI storage job points it at the directory restored by
// actions/cache, keyed on the store format and generator versions — the
// same versions spelled into every cached directory's name below.
const StoreCacheEnv = "TOPK_STORE_CACHE"

// StoreLoad parameterizes the workload. The zero value is the committed
// BENCH_store.json shape: zipf n=10^6 m=3 seed=42.
type StoreLoad struct {
	// Root directories the dataset cache ("" = $TOPK_STORE_CACHE, or
	// topk-store-cache under the OS temp dir).
	Root string
	// N, M, Dist, Seed shape the dataset (default zipf 1e6 x 3 seed 42,
	// the cluster workload's regime: a thin strong head over a long
	// irrelevant tail, where plan shape matters most).
	N, M int
	Dist string
	Seed int64
	// K is the retrieval size of the plan-shift sweep (default 10; the
	// sweep also runs 5*K).
	K int
	// Probes and Batches tune calibration (store.MeasureOptions).
	Probes, Batches int
	// SampleSize is the real-sample size fed to both optimizations
	// (default 500: at n=10^6 each sampled row stands for 2000 real ones,
	// the coarsest scaling at which the estimator's plan choices are
	// stable run to run — 100-row samples make the measured-vs-uniform
	// comparison flip sign with calibration noise).
	SampleSize int
}

func (c StoreLoad) withDefaults() StoreLoad {
	if c.Root == "" {
		c.Root = os.Getenv(StoreCacheEnv)
	}
	if c.Root == "" {
		c.Root = filepath.Join(os.TempDir(), "topk-store-cache")
	}
	if c.N == 0 {
		c.N = 1_000_000
	}
	if c.M == 0 {
		c.M = 3
	}
	if c.Dist == "" {
		c.Dist = data.Zipf.String()
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.Probes == 0 {
		c.Probes = 512
	}
	if c.Batches == 0 {
		c.Batches = 5
	}
	if c.SampleSize == 0 {
		c.SampleSize = 500
	}
	return c
}

// StoreDir names the cached store directory for a workload. The name
// carries every input that determines the bytes — distribution, sizes,
// seed, store format version, generator version — so a code change that
// alters either format or generation can never be served stale bytes
// from a warm cache.
func StoreDir(cfg StoreLoad) string {
	cfg = cfg.withDefaults()
	return filepath.Join(cfg.Root, fmt.Sprintf("%s-n%d-m%d-seed%d-fv%d-gv%d",
		cfg.Dist, cfg.N, cfg.M, cfg.Seed, store.FormatVersion, data.GeneratorVersion))
}

// EnsureStore opens the workload's cached store, building it first when
// the directory is missing or fails validation (a torn cache entry is
// rebuilt, not trusted). It reports whether a build ran.
func EnsureStore(cfg StoreLoad) (*store.Store, bool, error) {
	cfg = cfg.withDefaults()
	dir := StoreDir(cfg)
	if s, err := store.Open(dir, store.Options{}); err == nil {
		return s, false, nil
	}
	dist, err := data.DistributionByName(cfg.Dist)
	if err != nil {
		return nil, false, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, false, err
	}
	if err := store.WriteStream(dir, dist, cfg.N, cfg.M, cfg.Seed, store.WriterOptions{}); err != nil {
		return nil, false, err
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, false, err
	}
	return s, true, nil
}

// StorePlanShift is one cell of the plan-shift sweep: the same planning
// problem optimized under the uniform-cost assumption and under the
// measured calibration, both plans executed against the store priced at
// the measured costs.
type StorePlanShift struct {
	Cell     string  // capability shape, figure-2 style
	F        string  // scoring function
	K        int     // retrieval size
	Uniform  float64 // billed cost (ms) of the uniform-cost plan
	Measured float64 // billed cost (ms) of the measured-cost plan
	// Advantage is 1 - Measured/Uniform: the fraction of the bill the
	// measured-cost plan saves. Zero when the plans coincide.
	Advantage float64
}

// StoreLoadResult reports one full workload run.
type StoreLoadResult struct {
	Dir    string
	Built  bool
	N, M   int
	Warm   store.Calibration
	Cold   store.Calibration
	Shifts []StorePlanShift
	// BestAdvantage is the largest observed Advantage across the sweep —
	// the figure the BENCH_store.json gate compares.
	BestAdvantage float64
	// TotalUniform and TotalMeasured sum the billed cost of every sweep
	// cell under each planner — reported for context, not gated: the
	// optimizer is a sample-driven heuristic, and on cells where its
	// cardinality estimates are biased (avg at large k) the measured-cost
	// plan can genuinely come out worse despite the truer prices.
	TotalUniform, TotalMeasured float64
}

// storeShiftCell is one capability shape of the sweep, figure-2 style.
// caps reports (sortedOK, randomOK) for predicate i of m. Both-available
// is where the uniform assumption is most wrong (it prices ra at parity
// with sa while the disk charges a positioned read per probe); sa-only
// pins that the measured plan never does worse where there is no freedom
// to exploit; probe-heavy is MPro's regime — one sorted retrieval
// predicate, the rest probe-only — where probes are mandatory and the
// freedom is only in how deep the retrieval list runs.
type storeShiftCell struct {
	name string
	caps func(i, m int) (bool, bool)
}

var storeShiftCells = []storeShiftCell{
	{"sa-ra", func(i, m int) (bool, bool) { return true, true }},
	{"sa-only", func(i, m int) (bool, bool) { return true, false }},
	{"probe-heavy", func(i, m int) (bool, bool) { return i == 0, i > 0 }},
}

// scenarioFor prices the workload's capabilities: uniform charges 1 unit
// per supported access, measured charges the calibration's milliseconds.
func scenarioFor(m int, cell storeShiftCell, cal *store.Calibration) access.Scenario {
	cs, cr := 1.0, 1.0
	name := "uniform-assumed"
	if cal != nil {
		cs, cr = cal.SortedMS, cal.RandomMS
		name = "io-measured"
	}
	preds := make([]access.PredCost, m)
	for i := range preds {
		sorted, random := cell.caps(i, m)
		var pc access.PredCost
		if sorted {
			pc.SortedOK = true
			pc.Sorted = access.CostOf(cs)
		}
		if random {
			pc.RandomOK = true
			pc.Random = access.CostOf(cr)
		}
		preds[i] = pc
	}
	return access.Scenario{Name: fmt.Sprintf("%s/%s", name, cell.name), Preds: preds}
}

// RunStoreLoad builds/opens the cached store, calibrates it, and runs
// the plan-shift sweep.
func RunStoreLoad(cfg StoreLoad) (StoreLoadResult, error) {
	cfg = cfg.withDefaults()
	s, built, err := EnsureStore(cfg)
	if err != nil {
		return StoreLoadResult{}, err
	}
	defer s.Close()

	ctx := context.Background()
	mopts := store.MeasureOptions{Probes: cfg.Probes, Batches: cfg.Batches, Seed: cfg.Seed}
	warm, err := store.Measure(ctx, s, mopts)
	if err != nil {
		return StoreLoadResult{}, err
	}
	mopts.Cold = true
	cold, err := store.Measure(ctx, s, mopts)
	if err != nil {
		return StoreLoadResult{}, err
	}

	res := StoreLoadResult{
		Dir: s.Dir(), Built: built, N: s.N(), M: s.M(),
		Warm: warm, Cold: cold,
	}

	// One real sample serves both optimizations: the only difference
	// between the two plans is the cost model.
	sample, err := access.Sample(ctx, s, cfg.SampleSize, cfg.Seed, fmt.Sprintf("%s/sample(%d,seed=%d)", s.Name(), cfg.SampleSize, cfg.Seed))
	if err != nil {
		return StoreLoadResult{}, err
	}

	funcs := []score.Func{score.Min(), score.Avg()}
	for _, cell := range storeShiftCells {
		for _, f := range funcs {
			for _, k := range []int{cfg.K, 5 * cfg.K} {
				shift, err := runPlanShift(s, cell, f, k, sample, warm)
				if err != nil {
					return StoreLoadResult{}, fmt.Errorf("cell %s/%s/k=%d: %w", cell.name, f.Name(), k, err)
				}
				res.Shifts = append(res.Shifts, shift)
				res.TotalUniform += shift.Uniform
				res.TotalMeasured += shift.Measured
				if shift.Advantage > res.BestAdvantage {
					res.BestAdvantage = shift.Advantage
				}
			}
		}
	}
	return res, nil
}

// runPlanShift optimizes one planning problem twice — uniform-assumed vs
// io-measured costs — and executes both plans against the store under
// the measured scenario, comparing billed cost.
func runPlanShift(s *store.Store, cell storeShiftCell, f score.Func, k int, sample *data.Dataset, cal store.Calibration) (StorePlanShift, error) {
	uniformScn := scenarioFor(s.M(), cell, nil)
	measuredScn := scenarioFor(s.M(), cell, &cal)
	cfg := opt.Config{Sample: sample, Seed: 1}

	uniformPlan, err := opt.Optimize(cfg, uniformScn, f, k, s.N())
	if err != nil {
		return StorePlanShift{}, fmt.Errorf("uniform optimize: %w", err)
	}
	measuredPlan, err := opt.Optimize(cfg, measuredScn, f, k, s.N())
	if err != nil {
		return StorePlanShift{}, fmt.Errorf("measured optimize: %w", err)
	}

	// Both plans are billed under the measured scenario: the physics is
	// the judge, the assumption only picked the plan.
	uniformCost, err := executePlan(s, measuredScn, f, k, uniformPlan)
	if err != nil {
		return StorePlanShift{}, fmt.Errorf("uniform plan execution: %w", err)
	}
	measuredCost, err := executePlan(s, measuredScn, f, k, measuredPlan)
	if err != nil {
		return StorePlanShift{}, fmt.Errorf("measured plan execution: %w", err)
	}

	shift := StorePlanShift{
		Cell: cell.name, F: f.Name(), K: k,
		Uniform:  uniformCost.Units(),
		Measured: measuredCost.Units(),
	}
	if shift.Uniform > 0 {
		shift.Advantage = 1 - shift.Measured/shift.Uniform
	}
	return shift, nil
}

// executePlan runs a fixed NC configuration against the store and
// returns the billed total cost from the session ledger.
func executePlan(s *store.Store, scn access.Scenario, f score.Func, k int, plan opt.Plan) (access.Cost, error) {
	sel, err := algo.NewSRG(plan.H, plan.Omega)
	if err != nil {
		return 0, err
	}
	sess, err := access.NewSession(s, scn)
	if err != nil {
		return 0, err
	}
	prob, err := algo.NewProblem(f, k, sess)
	if err != nil {
		return 0, err
	}
	alg := &algo.NC{Sel: sel}
	if _, err := alg.RunScratch(prob, new(algo.Scratch)); err != nil {
		return 0, err
	}
	return sess.Ledger().TotalCost, nil
}
