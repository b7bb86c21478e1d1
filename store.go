package topk

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/store"
)

// Disk-backed storage facade. A Store is an access.Backend whose cost
// asymmetry is physical — sorted access amortizes block reads, random
// access pays a positioned read per probe — and is therefore the backend
// to *measure* (cs, cr) against instead of assuming them. See
// internal/store for the on-disk format and DESIGN.md §16 for the
// calibration protocol.
type (
	// Store is a read-only disk-backed Backend over a store directory.
	Store = store.Store
	// StoreOptions tunes OpenStore (block-cache budget).
	StoreOptions = store.Options
	// StoreWriterOptions tunes BuildStore (block granularity, generator
	// version stamp).
	StoreWriterOptions = store.WriterOptions
	// StoreStats snapshots a store's physical IO counters.
	StoreStats = store.Stats
	// StoreCalibration is an IO-measured access cost model: quantized
	// milliseconds per sorted and per random access.
	StoreCalibration = store.Calibration
	// StoreMeasureOptions tunes MeasureStore (probes per batch, batches,
	// cold mode).
	StoreMeasureOptions = store.MeasureOptions
)

// ErrStoreCorrupt reports a store directory that failed validation on
// open: missing or truncated files, checksum or fence-order damage. The
// store refuses loudly instead of serving bytes it cannot vouch for.
var ErrStoreCorrupt = store.ErrCorrupt

// BuildStore generates a dataset of a named distribution ("uniform",
// "zipf", "correlated", ...) directly into store format at dir, streaming
// one object row at a time — n=10^6 and beyond never materialize in
// memory. The result serves bit-identical scores and sorted orders to
// GenerateDataset with the same parameters.
func BuildStore(dir, dist string, n, m int, seed int64, opts StoreWriterOptions) error {
	d, err := data.DistributionByName(dist)
	if err != nil {
		return err
	}
	return store.WriteStream(dir, d, n, m, seed, opts)
}

// BuildStoreFromDataset writes an in-memory dataset to store format.
func BuildStoreFromDataset(dir string, ds *Dataset, opts StoreWriterOptions) error {
	return store.WriteDataset(dir, ds, opts)
}

// OpenStore validates and opens a store directory built by BuildStore.
// Damage surfaces as ErrStoreCorrupt; rebuilding is always safe.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	return store.Open(dir, opts)
}

// MeasureStore times sorted and random accesses against a backend
// (batched, median-of-batches) and returns quantized per-access costs in
// milliseconds. Use the result with CalibratedScenario and WithStore.
func MeasureStore(ctx context.Context, b Backend, opts StoreMeasureOptions) (StoreCalibration, error) {
	return store.Measure(ctx, b, opts)
}

// CalibratedScenario prices all m predicates at a measured calibration:
// cs = cal.SortedMS, cr = cal.RandomMS, in milliseconds-as-units. This is
// the paper's uniform-cost scenario with the assumption replaced by
// measurement.
func CalibratedScenario(m int, cal StoreCalibration) Scenario {
	scn := UniformScenario(m, cal.SortedMS, cal.RandomMS)
	scn.Name = fmt.Sprintf("calibrated(%s)", cal.Key())
	return scn
}

// WithStore declares the engine serves a disk store priced by the given
// calibration: the store's identity and the quantized measured costs join
// the plan-cache fingerprint (OptimizerConfig.BackendKey), so plans
// priced under one calibration are not replayed after a re-calibration —
// new hardware, warm vs cold mode — moves the physics, while repeat
// calibrations of unchanged physics stay cache hits. It does not replace
// the engine's backend; pass the store (or a layer over it) to NewEngine
// as usual.
func WithStore(s *Store, cal StoreCalibration) EngineOption {
	return func(e *Engine) {
		e.storageKey = fmt.Sprintf("%s@%s", s.Name(), cal.Key())
	}
}
