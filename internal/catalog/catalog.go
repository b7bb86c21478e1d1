// Package catalog assembles a middleware's view of heterogeneous Web
// sources: which source scores which predicate, through which access
// types, at what cost. Sources register a backend per predicate; the
// catalog composes them into a single routed access.Backend for the query
// engine and derives the cost scenario either from declared unit costs or
// by *calibration* — timing real accesses, the way a Web middleware turns
// observed latencies into the cost model of the paper's Figure 1.
package catalog

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/store"
)

// Registration describes one predicate served by one source.
type Registration struct {
	// Source is a human-readable source name (e.g. "superpages.com").
	Source string
	// PredName is the predicate's name as queries refer to it.
	PredName string
	// Backend serves the predicate; LocalPred is its index there.
	Backend   access.Backend
	LocalPred int
	// Sorted and Random declare the supported access types.
	Sorted, Random bool
	// SortedCost and RandomCost optionally declare unit costs (in cost
	// units); zero means "unknown, calibrate me".
	SortedCost, RandomCost float64
}

// Catalog accumulates registrations, one per query predicate, in
// registration order.
type Catalog struct {
	regs []Registration
	n    int
}

// New creates an empty catalog.
func New() *Catalog { return &Catalog{n: -1} }

// Register adds one predicate. All registered backends must serve the
// same object universe (identical N) and the registration must support at
// least one access type with a valid local predicate.
func (c *Catalog) Register(r Registration) error {
	if r.Backend == nil {
		return fmt.Errorf("catalog: registration %q/%q has no backend", r.Source, r.PredName)
	}
	if !r.Sorted && !r.Random {
		return fmt.Errorf("catalog: predicate %q supports no access type", r.PredName)
	}
	if r.LocalPred < 0 || r.LocalPred >= r.Backend.M() {
		return fmt.Errorf("catalog: predicate %q local index %d out of source range [0,%d)", r.PredName, r.LocalPred, r.Backend.M())
	}
	if r.SortedCost < 0 || r.RandomCost < 0 {
		return fmt.Errorf("catalog: predicate %q has negative declared cost", r.PredName)
	}
	for _, prev := range c.regs {
		if prev.PredName == r.PredName {
			return fmt.Errorf("catalog: predicate %q registered twice", r.PredName)
		}
	}
	if c.n == -1 {
		c.n = r.Backend.N()
	} else if r.Backend.N() != c.n {
		return fmt.Errorf("catalog: source %q serves %d objects, catalog universe has %d", r.Source, r.Backend.N(), c.n)
	}
	c.regs = append(c.regs, r)
	return nil
}

// M returns the number of registered predicates.
func (c *Catalog) M() int { return len(c.regs) }

// PredicateNames returns the predicate names in registration (= query
// predicate) order.
func (c *Catalog) PredicateNames() []string {
	out := make([]string, len(c.regs))
	for i, r := range c.regs {
		out[i] = r.PredName
	}
	return out
}

// routed composes the registrations into one Backend: query predicate i is
// served by registration i, paged by pages[i]. It is the catalog's own
// column map — each registration names its source's predicate — so it maps
// the predicates of many backends, where a query's Cols select among one's.
type routed struct {
	regs  []Registration
	pages []access.Pager
	n     int
}

func newRouted(regs []Registration, n int) routed {
	b := routed{regs: regs, pages: make([]access.Pager, len(regs)), n: n}
	for i, r := range regs {
		b.pages[i] = access.Pages(r.Backend)
	}
	return b
}

func (b routed) N() int { return b.n }
func (b routed) M() int { return len(b.regs) }

func (b routed) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	if pred < 0 || pred >= len(b.regs) {
		return 0, fmt.Errorf("catalog: predicate %d out of range", pred)
	}
	//topklint:allow billedaccess routes to several backends, one per predicate: there is no single layer below for Unwrap to return
	return b.pages[pred].Page(ctx, b.regs[pred].LocalPred, from, buf)
}

func (b routed) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, b, pred, rank))
}

// Consumed reports read-ahead to the predicate's own backend.
func (b routed) Consumed(pred, n int) {
	access.Consumed(b.regs[pred].Backend, b.regs[pred].LocalPred, n)
}

func (b routed) Random(ctx context.Context, pred, obj int) (float64, error) {
	if pred < 0 || pred >= len(b.regs) {
		return 0, fmt.Errorf("catalog: predicate %d out of range", pred)
	}
	r := b.regs[pred]
	return r.Backend.Random(ctx, r.LocalPred, obj)
}

// DropCaches implements store.CacheDropper: it drops the caches found
// anywhere below each registration's backend, so a cold measurement
// through the catalog reaches its sources.
func (b routed) DropCaches() {
	for _, r := range b.regs {
		if d, ok := access.As[store.CacheDropper](r.Backend); ok {
			d.DropCaches()
		}
	}
}

// Backend returns the composed multi-source backend. It requires at least
// one registration.
func (c *Catalog) Backend() (access.Backend, error) {
	if len(c.regs) == 0 {
		return nil, fmt.Errorf("catalog: no predicates registered")
	}
	return newRouted(append([]Registration(nil), c.regs...), c.n), nil
}

// DeclaredScenario builds the cost scenario from the registrations'
// declared unit costs, failing if any supported access type lacks one.
func (c *Catalog) DeclaredScenario(name string) (access.Scenario, error) {
	preds := make([]access.PredCost, len(c.regs))
	for i, r := range c.regs {
		var pc access.PredCost
		if r.Sorted {
			if r.SortedCost == 0 {
				return access.Scenario{}, fmt.Errorf("catalog: predicate %q has no declared sorted cost; use CalibrateIO", r.PredName)
			}
			c, err := access.CostFromUnits(r.SortedCost)
			if err != nil {
				return access.Scenario{}, fmt.Errorf("catalog: predicate %q sorted cost: %w", r.PredName, err)
			}
			pc.Sorted, pc.SortedOK = c, true
		}
		if r.Random {
			if r.RandomCost == 0 {
				return access.Scenario{}, fmt.Errorf("catalog: predicate %q has no declared random cost; use CalibrateIO", r.PredName)
			}
			c, err := access.CostFromUnits(r.RandomCost)
			if err != nil {
				return access.Scenario{}, fmt.Errorf("catalog: predicate %q random cost: %w", r.PredName, err)
			}
			pc.Random, pc.RandomOK = c, true
		}
		preds[i] = pc
	}
	return access.Scenario{Name: name, Preds: preds}, nil
}

// CalibrateIO measures per-access cost from timed IO using the store
// measurement harness: batched probes per predicate and access type,
// median across batches, quantized to two significant figures (see
// store.QuantizeUnits). Batching resolves the sub-microsecond per-access
// costs a disk store serves (a warm sorted access is a map lookup plus a
// 12-byte decode), which single-probe timing rounds to noise, and the
// quantization keeps repeat calibrations keying the plan cache
// identically. Each registration is measured through a catalog view
// holding it alone, so only its own predicate is touched; opts.Cold drops
// its source's caches between batches for worst-case pricing. Only what
// the scenario needs is timed: a capability the registration supports and
// declares no cost for. Declared costs are kept as they are. Measurement
// traffic counts toward no query's ledger — it is the middleware's
// startup cost — and ctx bounds it. The returned key, one clause per
// predicate, is a measured registration's store.Calibration key, in which
// a half not timed spells 0ms (a measurement never quantizes to 0), or "-"
// for a registration with nothing to time; topk.WithStore folds such keys
// into the plan-cache fingerprint.
func (c *Catalog) CalibrateIO(ctx context.Context, name string, opts store.MeasureOptions) (access.Scenario, string, error) {
	if len(c.regs) == 0 {
		return access.Scenario{}, "", fmt.Errorf("catalog: no predicates registered")
	}
	preds := make([]access.PredCost, len(c.regs))
	keys := make([]string, len(c.regs))
	for i, r := range c.regs {
		one := newRouted([]Registration{r}, c.n)
		cal := store.Calibration{Mode: "warm"}
		if opts.Cold {
			cal.Mode = "cold"
		}
		var pc access.PredCost
		if r.Sorted {
			ms := r.SortedCost
			if ms <= 0 {
				raw, err := store.MeasureSorted(ctx, one, opts)
				if err != nil {
					return access.Scenario{}, "", fmt.Errorf("catalog: calibrating %q: %w", r.PredName, err)
				}
				ms = store.QuantizeUnits(raw)
				cal.SortedMS = ms
			}
			cost, err := access.CostFromUnits(ms)
			if err != nil {
				return access.Scenario{}, "", fmt.Errorf("catalog: predicate %q sorted cost: %w", r.PredName, err)
			}
			pc.Sorted, pc.SortedOK = cost, true
		}
		if r.Random {
			ms := r.RandomCost
			if ms <= 0 {
				raw, err := store.MeasureRandom(ctx, one, opts)
				if err != nil {
					return access.Scenario{}, "", fmt.Errorf("catalog: calibrating %q: %w", r.PredName, err)
				}
				ms = store.QuantizeUnits(raw)
				cal.RandomMS = ms
			}
			cost, err := access.CostFromUnits(ms)
			if err != nil {
				return access.Scenario{}, "", fmt.Errorf("catalog: predicate %q random cost: %w", r.PredName, err)
			}
			pc.Random, pc.RandomOK = cost, true
		}
		preds[i] = pc
		keys[i] = "-"
		if cal.SortedMS > 0 || cal.RandomMS > 0 {
			keys[i] = cal.Key()
		}
	}
	return access.Scenario{Name: name, Preds: preds}, strings.Join(keys, ","), nil
}
