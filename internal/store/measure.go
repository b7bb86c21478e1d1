package store

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/access"
)

// MeasureOptions tunes IO cost measurement.
type MeasureOptions struct {
	// Probes is the number of accesses timed per batch (default 512).
	// Each batch yields one per-access figure; the median across batches
	// is the measurement, so stray scheduler hiccups don't land in the
	// cost model.
	Probes int
	// Batches is the number of batches (default 5).
	Batches int
	// Seed drives probe placement (ranks, objects, predicates).
	Seed int64
	// Cold drops the backend's caches (DropCaches) before every batch,
	// so each batch re-pays block reads instead of amortizing the first
	// batch's. Warm (the default) measures the steady state a long query
	// run sees.
	Cold bool
}

// CacheDropper is implemented by backends whose caches cold-mode
// measurement can evict (the Store's decoded-block cache); it is found
// anywhere below the measured backend (access.As).
type CacheDropper interface{ DropCaches() }

// Calibration is a measured access cost model: milliseconds per sorted
// and per random access, quantized to two significant figures so repeat
// measurements of the same hardware key identically (see QuantizeUnits).
type Calibration struct {
	SortedMS float64 // cs: ms per sorted access
	RandomMS float64 // cr: ms per random access
	Mode     string  // "warm" or "cold"
	Probes   int     // accesses per batch that produced the figures
}

// Ratio returns cr/cs, the asymmetry the optimizer's plan shape turns on.
func (c Calibration) Ratio() float64 { return c.RandomMS / c.SortedMS }

// Key renders the calibration for the plan-cache fingerprint. Because
// the cost figures are quantized, the key is stable across repeat
// calibrations of the same store on the same hardware — and changes
// whenever the measured physics does, which must invalidate cached
// plans.
func (c Calibration) Key() string {
	return fmt.Sprintf("io(cs=%gms,cr=%gms,%s)", c.SortedMS, c.RandomMS, c.Mode)
}

func (o MeasureOptions) probes() int {
	if o.Probes <= 0 {
		return 512
	}
	return o.Probes
}

func (o MeasureOptions) batches() int {
	if o.Batches <= 0 {
		return 5
	}
	return o.Batches
}

func (o MeasureOptions) mode() string {
	if o.Cold {
		return "cold"
	}
	return "warm"
}

// Measure times sorted and random accesses against a backend and returns
// the quantized per-access costs. It works on any access.Backend — the
// catalog calls it on one-predicate projections of declared sources too —
// but it is only as honest as the backend is physical. Measurement probes are raw, unbilled
// accesses by design: they are the instrument, not the query. The
// context bounds the probes (they may hit real sources).
func Measure(ctx context.Context, b access.Backend, opts MeasureOptions) (Calibration, error) {
	cs, err := MeasureSorted(ctx, b, opts)
	if err != nil {
		return Calibration{}, err
	}
	cr, err := MeasureRandom(ctx, b, opts)
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{
		SortedMS: QuantizeUnits(cs),
		RandomMS: QuantizeUnits(cr),
		Mode:     opts.mode(),
		Probes:   opts.probes(),
	}, nil
}

// MeasureSorted times batches of consecutive sorted accesses — the sa_i
// pattern every algorithm issues: descend a list from some depth — and
// returns the median per-access milliseconds (unquantized).
func MeasureSorted(ctx context.Context, b access.Backend, opts MeasureOptions) (float64, error) {
	probes, batches := opts.probes(), opts.batches()
	if probes > b.N() {
		probes = b.N()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	samples := make([]float64, 0, batches)
	for i := 0; i < batches; i++ {
		pred := rng.Intn(b.M())
		start := 0
		if span := b.N() - probes; span > 0 {
			start = rng.Intn(span)
		}
		dropCaches(b, opts)
		t0 := time.Now()
		for r := start; r < start+probes; r++ {
			if _, _, err := b.Sorted(ctx, pred, r); err != nil {
				return 0, fmt.Errorf("store: measuring sorted access: %w", err)
			}
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e6/float64(probes))
	}
	return median(samples), nil
}

// MeasureRandom times batches of scattered point probes — the ra_i
// pattern — and returns the median per-access milliseconds (unquantized).
// Probe targets are drawn before the clock starts.
func MeasureRandom(ctx context.Context, b access.Backend, opts MeasureOptions) (float64, error) {
	probes, batches := opts.probes(), opts.batches()
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	preds := make([]int, probes)
	objs := make([]int, probes)
	samples := make([]float64, 0, batches)
	for i := 0; i < batches; i++ {
		for j := 0; j < probes; j++ {
			preds[j] = rng.Intn(b.M())
			objs[j] = rng.Intn(b.N())
		}
		dropCaches(b, opts)
		t0 := time.Now()
		for j := 0; j < probes; j++ {
			if _, err := b.Random(ctx, preds[j], objs[j]); err != nil {
				return 0, fmt.Errorf("store: measuring random access: %w", err)
			}
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e6/float64(probes))
	}
	return median(samples), nil
}

func dropCaches(b access.Backend, opts MeasureOptions) {
	if !opts.Cold {
		return
	}
	if d, ok := access.As[CacheDropper](b); ok {
		d.DropCaches()
	}
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
