package topk

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/store"
)

// The estimator's sample (Section 7.3). The paper's cost estimator runs
// simulations on a sample of the data and falls back to a uniform "dummy"
// only when no real sample is available. An engine over a single-node base
// — an in-memory dataset or a disk store, found below any sharing, guard
// or fault wrapper — has one, so it draws min(1000, n/100) rows of it once,
// at construction, and plans every query on them. A base too small for 50
// rows (the dummy's size) keeps the dummy, and so does a coordinator: its
// rows sit behind routed probes, a draw too slow for startup.

const (
	baseSampleMax   = 1000 // rows drawn at most
	baseSampleRatio = 100  // objects per row drawn
	baseSampleSeed  = 1
)

// drawPlanSample draws the engine's sample from b's single-node base, or
// returns nil when b has none or it is too small to beat the dummy. The
// rows are read from the base directly: no session, no bill.
func drawPlanSample(b Backend) (*data.Dataset, error) {
	rows := min(baseSampleMax, b.N()/baseSampleRatio)
	if rows < opt.DefaultSampleSize {
		return nil, nil
	}
	var base Backend
	if ds, ok := access.As[access.DatasetBackend](b); ok {
		base = ds
	} else if st, ok := access.As[*store.Store](b); ok {
		base = st
	}
	if base == nil || base.N() != b.N() || base.M() != b.M() {
		return nil, nil
	}
	return access.Sample(context.Background(), base, rows, baseSampleSeed, fmt.Sprintf("base(%d)", rows))
}

// planConfig is cfg as a plan for a query over cols is searched: a sample
// cfg names itself wins, else the engine's own, read through cols, else
// the dummy.
func (e *Engine) planConfig(cfg OptimizerConfig, cols []int) OptimizerConfig {
	if cfg.Sample == nil && e.sample != nil {
		cfg.Sample, cfg.Cols = e.sample, cols
	}
	return cfg
}

// PlanSample names the sample the optimizer plans a query under cfg on:
// cfg.Sample's name when it gives one, "base(<rows>)" when the engine
// drew its own, else the uniform "dummy(<size>)". Traces report it as
// planSample.
func (e *Engine) PlanSample(cfg OptimizerConfig) string {
	if cfg.Sample == nil {
		cfg.Sample = e.sample
	}
	return opt.SampleName(cfg)
}
