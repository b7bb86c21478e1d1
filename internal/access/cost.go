// Package access models middleware access to (Web) sources: sorted and
// random accesses with per-predicate unit costs, capability restrictions
// (an access type may be cheap, expensive, or impossible), cost ledgers
// implementing the paper's cost model (Eq. 1), access-trace recording,
// legality enforcement (no wild guesses, no repeated probes, in-order
// sorted access), and dynamic cost scenarios for adaptivity experiments.
//
// Algorithms never touch a dataset directly; they see only a Session,
// which mediates every access exactly the way a Web middleware would —
// each access reveals one unit of score information and accrues its cost.
package access

import (
	"fmt"
	"math"
)

// Cost is an access cost in fixed-point micro-units (1 unit = 1e6).
// Integer arithmetic keeps ledgers exact no matter how many accesses
// accrue; unit values are whatever the scenario chooses (the paper uses
// milliseconds of latency).
type Cost int64

// UnitCost is one cost unit.
const UnitCost Cost = 1_000_000

// CostFromUnits converts a float unit value (e.g. milliseconds) to a Cost.
// NaN and negative values are rejected: costs are magnitudes in the
// paper's model (Eq. 1) and a negative ledger entry would let an optimizer
// "earn" budget by accessing.
func CostFromUnits(u float64) (Cost, error) {
	if math.IsNaN(u) || u < 0 {
		return 0, fmt.Errorf("access: invalid cost %v (must be a non-negative number)", u)
	}
	return Cost(math.Round(u * float64(UnitCost))), nil
}

// CostOf is CostFromUnits for scenario literals and builders, where a
// two-value conversion would bury the PredCost table in error plumbing:
// invalid unit values map to a negative sentinel Cost, which every
// consumer rejects through the mandatory Scenario.Validate.
func CostOf(u float64) Cost {
	c, err := CostFromUnits(u)
	if err != nil {
		return -1
	}
	return c
}

// Units converts back to float units.
func (c Cost) Units() float64 { return float64(c) / float64(UnitCost) }

// String prints the cost in units with three decimals.
func (c Cost) String() string { return fmt.Sprintf("%.3f", c.Units()) }

// Kind distinguishes the two access types of Section 3.2.
type Kind int

const (
	// SortedAccess is sa_i: next object in descending p_i order. It is
	// progressive and has the side effect of bounding unseen objects.
	SortedAccess Kind = iota
	// RandomAccess is ra_i(u): the exact score p_i[u] for a specific
	// object. It has no side effects and must not be repeated.
	RandomAccess
)

// String returns "sa" or "ra".
func (k Kind) String() string {
	if k == SortedAccess {
		return "sa"
	}
	return "ra"
}

// PredCost describes one predicate's access capabilities and unit costs
// (cs_i and cr_i in the paper). An unsupported access type is modeled
// explicitly rather than with an infinite cost.
type PredCost struct {
	Sorted   Cost // cs_i, meaningful only when SortedOK
	SortedOK bool
	Random   Cost // cr_i, meaningful only when RandomOK
	RandomOK bool
}

// Scenario is a complete cost configuration for a query: one PredCost per
// predicate. It corresponds to one cell (or mix of cells) of the paper's
// Figure 2 access-scenario matrix.
type Scenario struct {
	Name  string
	Preds []PredCost
}

// M returns the number of predicates the scenario covers.
func (s Scenario) M() int { return len(s.Preds) }

// Validate checks the scenario against a predicate count: every predicate
// must support at least one access type, and at least one predicate must
// support sorted access (otherwise no object can ever be seen under
// no-wild-guesses; probe-only scenarios model MPro's setup where object
// ids flow from one sorted "retrieval" predicate).
func (s Scenario) Validate(m int) error {
	if len(s.Preds) != m {
		return fmt.Errorf("access: scenario %q covers %d predicates, query has %d", s.Name, len(s.Preds), m)
	}
	anySorted := false
	for i, pc := range s.Preds {
		if !pc.SortedOK && !pc.RandomOK {
			return fmt.Errorf("access: scenario %q predicate %d supports no access at all", s.Name, i)
		}
		if pc.SortedOK {
			anySorted = true
			if pc.Sorted < 0 {
				return fmt.Errorf("access: scenario %q predicate %d has negative (or invalid) sorted cost", s.Name, i)
			}
		}
		if pc.RandomOK && pc.Random < 0 {
			return fmt.Errorf("access: scenario %q predicate %d has negative (or invalid) random cost", s.Name, i)
		}
	}
	if !anySorted {
		return fmt.Errorf("access: scenario %q supports sorted access on no predicate; objects could never be seen", s.Name)
	}
	return nil
}

// ProjectScenario returns the scenario of the predicates cols selects, in
// cols' order: predicate i of the result is predicate cols[i] of s, under
// the same name. Nil cols selects s itself.
func ProjectScenario(s Scenario, cols []int) (Scenario, error) {
	if cols == nil {
		return s, nil
	}
	if err := checkCols(cols, len(s.Preds)); err != nil {
		return Scenario{}, err
	}
	preds := make([]PredCost, len(cols))
	for i, c := range cols {
		preds[i] = s.Preds[c]
	}
	return Scenario{Name: s.Name, Preds: preds}, nil
}

// Uniform builds a scenario with identical sorted cost cs and random cost
// cr on all m predicates (the diagonal of Figure 2 when cs == cr).
// Invalid unit values surface from Scenario.Validate, which every session
// constructor runs.
func Uniform(m int, cs, cr float64) Scenario {
	preds := make([]PredCost, m)
	for i := range preds {
		preds[i] = PredCost{Sorted: CostOf(cs), SortedOK: true, Random: CostOf(cr), RandomOK: true}
	}
	return Scenario{Name: fmt.Sprintf("uniform(cs=%g,cr=%g)", cs, cr), Preds: preds}
}

// Capability abstracts one axis of the Figure 2 matrix.
type Capability int

const (
	// Cheap means unit cost 1.
	Cheap Capability = iota
	// Expensive means unit cost h (the matrix's "h", configurable in
	// MatrixCell; we default to 10).
	Expensive
	// Impossible means the access type is unsupported.
	Impossible
)

// String returns the capability name.
func (c Capability) String() string {
	switch c {
	case Cheap:
		return "cheap"
	case Expensive:
		return "expensive"
	case Impossible:
		return "impossible"
	default:
		return fmt.Sprintf("Capability(%d)", int(c))
	}
}

// MatrixCell builds the scenario for one cell of Figure 2: the given
// sorted/random capability on all m predicates, with "expensive" meaning
// expensiveFactor times the cheap unit cost. Sorted access Impossible is
// modeled as MPro's setting: predicate 0 keeps a cheap sorted (retrieval)
// capability so objects can be seen, and all predicates are probe-only
// otherwise — this mirrors how probe-only middleware obtain candidate
// objects in the paper's references [2, 5].
func MatrixCell(m int, sorted, random Capability, expensiveFactor float64) Scenario {
	cost := func(c Capability) (Cost, bool) {
		switch c {
		case Cheap:
			return UnitCost, true
		case Expensive:
			return CostOf(expensiveFactor), true
		default:
			return 0, false
		}
	}
	preds := make([]PredCost, m)
	for i := range preds {
		var pc PredCost
		pc.Sorted, pc.SortedOK = cost(sorted)
		pc.Random, pc.RandomOK = cost(random)
		preds[i] = pc
	}
	if sorted == Impossible {
		// Retrieval predicate: cheap sorted access on p_0 only.
		preds[0].Sorted, preds[0].SortedOK = UnitCost, true
	}
	return Scenario{
		Name:  fmt.Sprintf("matrix(sa=%v,ra=%v,h=%g)", sorted, random, expensiveFactor),
		Preds: preds,
	}
}

// CostShift is a dynamic cost event: once the session has performed
// AfterAccesses accesses in total, the given predicate's unit costs are
// multiplied by the factors. It models the Web's runtime dynamics
// ("cost scenarios changing over time, e.g., depending on source load").
type CostShift struct {
	AfterAccesses int
	Pred          int
	SortedFactor  float64
	RandomFactor  float64
}

func scaleCost(c Cost, f float64) Cost {
	return Cost(math.Round(float64(c) * f))
}
