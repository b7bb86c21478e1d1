package topk

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

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

// maxSampleViews bounds the per-column-list projections an engine keeps
// of its sample: every ordered selection of up to four predicates fits
// (64 of them); queries over further lists plan on the dummy.
const maxSampleViews = 64

// planSamples is an engine's own sample and its projections, one dataset
// per column list a query has named, so the plan cache keys a column list
// by the identity of its view.
type planSamples struct {
	base  *data.Dataset // every predicate, in the backend's numbering; nil: plan on the dummy
	mu    sync.RWMutex
	views map[string]*data.Dataset // by colsKey
}

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

// forCols returns the sample a query over cols plans on: the base sample
// for nil, else its projection onto cols, built on first use. Nil means
// the dummy: no base sample, or no room for another view.
func (s *planSamples) forCols(cols []int) *data.Dataset {
	if s.base == nil || cols == nil {
		return s.base
	}
	var buf [32]byte
	key := colsKey(buf[:0], cols)
	s.mu.RLock()
	v, ok := s.views[string(key)]
	s.mu.RUnlock()
	if ok {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.views[string(key)]; ok {
		return v
	}
	if len(s.views) >= maxSampleViews {
		return nil
	}
	v, err := projectSample(s.base, cols)
	if err != nil {
		return nil // the session refuses these columns before any plan runs
	}
	if s.views == nil {
		s.views = make(map[string]*data.Dataset)
	}
	s.views[string(key)] = v
	return v
}

// colsKey appends a column list's map key to dst.
func colsKey(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// projectSample copies cols of sample into a dataset of its own, under
// the sample's name: what a trace names is the sample, whatever columns a
// query reads of it.
func projectSample(sample *data.Dataset, cols []int) (*data.Dataset, error) {
	view, err := data.Project(sample, cols)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, view.N())
	for u := range rows {
		rows[u] = view.Scores(u)
	}
	return data.New(sample.Name(), rows)
}

// planConfig is cfg as a plan for a query over cols is searched: a sample
// cfg names itself wins, else the engine's own, else the dummy.
func (e *Engine) planConfig(cfg OptimizerConfig, cols []int) OptimizerConfig {
	if cfg.Sample == nil {
		cfg.Sample = e.samples.forCols(cols)
	}
	return cfg
}

// PlanSample names the sample the optimizer plans a query under cfg on:
// cfg.Sample's name when it gives one, "base(<rows>)" when the engine
// drew its own, else the uniform "dummy(<size>)". Traces report it as
// planSample.
func (e *Engine) PlanSample(cfg OptimizerConfig) string {
	if cfg.Sample == nil {
		cfg.Sample = e.samples.base
	}
	return opt.SampleName(cfg)
}
