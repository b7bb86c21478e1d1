// Package score provides the monotone scoring functions that aggregate
// per-predicate scores into an overall query score for top-k queries.
//
// A top-k query Q = (F, k) ranks objects by F(p_1[u], ..., p_m[u]) where
// each predicate score p_i[u] lies in [0,1]. Following the paper's standard
// assumption (Section 3.1), every Func in this package is monotone:
// F(x) <= F(y) whenever x_i <= y_i for all i. Monotonicity is what makes
// maximal-possible scores (substituting unevaluated predicates by their
// upper bounds) sound, and it is checked by property tests.
//
// Besides evaluation, a Func carries two pieces of metadata used elsewhere:
//
//   - Shape: a coarse classification consumed by the optimizer's
//     query-driven "Strategies" scheme (Section 7.2), which focuses the
//     H-search on configurations that suit the function (e.g. focused
//     depths for min-like functions, equal depths for mean-like ones).
//   - Derivative: the partial derivative where defined, consumed by the
//     Quick-Combine / Stream-Combine indicator. The paper points out that
//     this indicator "may not [be] applicable to all functions (e.g.,
//     min)"; Derivative reports applicability explicitly.
package score

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Shape classifies a scoring function for the optimizer's Strategies
// scheme. It is a heuristic hint, never a correctness requirement.
type Shape int

const (
	// ShapeOther marks functions with no specific strategy; the optimizer
	// falls back to a generic search.
	ShapeOther Shape = iota
	// ShapeMinLike marks functions dominated by their smallest argument
	// (min, product, geometric mean). Focused sorted-access depths tend to
	// win: driving one list deep quickly caps every object's overall bound.
	ShapeMinLike
	// ShapeMeanLike marks functions where every argument contributes
	// proportionally (avg, weighted sum). Equal or weight-proportional
	// depths tend to win.
	ShapeMeanLike
	// ShapeMaxLike marks functions dominated by their largest argument
	// (max). Sorted access on any single list determines the top answers;
	// shallow parallel depths tend to win.
	ShapeMaxLike
)

// String returns the shape name.
func (s Shape) String() string {
	switch s {
	case ShapeMinLike:
		return "min-like"
	case ShapeMeanLike:
		return "mean-like"
	case ShapeMaxLike:
		return "max-like"
	default:
		return "other"
	}
}

// Func is a monotone scoring function over predicate scores in [0,1].
//
// Implementations must be pure and safe for concurrent use.
type Func interface {
	// Name returns a short human-readable identifier such as "min" or
	// "wsum(0.5,0.5)".
	Name() string

	// Arity returns the number of predicate scores the function expects,
	// or 0 if it accepts any positive arity.
	Arity() int

	// Eval computes the overall score. The slice must have length Arity()
	// (or any positive length when Arity() == 0); Eval must not retain or
	// modify it. Inputs outside [0,1] are clamped by callers, not here.
	Eval(scores []float64) float64

	// Shape returns the strategy classification for the optimizer.
	Shape() Shape

	// Derivative returns dF/dx_i at the given point and whether the
	// derivative indicator is applicable to this function. Functions like
	// min return ok == false.
	Derivative(scores []float64, i int) (d float64, ok bool)
}

// ErrArity is returned by Validate when a function's arity does not match
// the number of query predicates.
var ErrArity = errors.New("score: function arity does not match predicate count")

// Validate checks that f can aggregate m predicate scores.
func Validate(f Func, m int) error {
	if m <= 0 {
		return fmt.Errorf("score: predicate count must be positive, got %d", m)
	}
	if a := f.Arity(); a != 0 && a != m {
		return fmt.Errorf("%w: function %s expects %d, query has %d", ErrArity, f.Name(), a, m)
	}
	return nil
}

// minFunc implements F = min(x_1..x_m).
type minFunc struct{}

// Min returns the minimum scoring function, the running example of the
// paper's Query Q1 ("order by min(rating, closeness)").
func Min() Func { return minFunc{} }

func (minFunc) Name() string { return "min" }
func (minFunc) Arity() int   { return 0 }
func (minFunc) Shape() Shape { return ShapeMinLike }

func (minFunc) Eval(scores []float64) float64 {
	m := scores[0]
	for _, s := range scores[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

func (minFunc) Derivative(scores []float64, i int) (float64, bool) {
	// min is not differentiable at ties and its derivative is a poor
	// steering indicator (the paper's critique of Quick-Combine); report
	// inapplicable.
	return 0, false
}

// maxFunc implements F = max(x_1..x_m).
type maxFunc struct{}

// Max returns the maximum scoring function.
func Max() Func { return maxFunc{} }

func (maxFunc) Name() string { return "max" }
func (maxFunc) Arity() int   { return 0 }
func (maxFunc) Shape() Shape { return ShapeMaxLike }

func (maxFunc) Eval(scores []float64) float64 {
	m := scores[0]
	for _, s := range scores[1:] {
		if s > m {
			m = s
		}
	}
	return m
}

func (maxFunc) Derivative(scores []float64, i int) (float64, bool) {
	return 0, false
}

// avgFunc implements F = (x_1 + ... + x_m) / m.
type avgFunc struct{}

// Avg returns the arithmetic-mean scoring function, used by the paper's
// Query Q2 and scenario S1.
func Avg() Func { return avgFunc{} }

func (avgFunc) Name() string { return "avg" }
func (avgFunc) Arity() int   { return 0 }
func (avgFunc) Shape() Shape { return ShapeMeanLike }

func (avgFunc) Eval(scores []float64) float64 {
	sum := 0.0
	for _, s := range scores {
		sum += s
	}
	return sum / float64(len(scores))
}

func (avgFunc) Derivative(scores []float64, i int) (float64, bool) {
	return 1 / float64(len(scores)), true
}

// weighted implements F = sum_i w_i * x_i with w_i >= 0.
type weighted struct {
	w    []float64
	name string
	// inline holds w when it has no more than len(inline) weights, so a
	// weighted sum over a handful of predicates is one block beside its
	// name.
	inline [8]float64
}

// Weighted returns a weighted-sum scoring function with the given
// non-negative weights. The weights are copied; they need not sum to 1
// (overall scores then range in [0, sum(w)]). Weighted panics if no weight
// is given or any weight is negative, since such a function would not be a
// monotone [0,1]-aggregate.
func Weighted(weights ...float64) Func {
	if len(weights) == 0 {
		panic("score: Weighted requires at least one weight")
	}
	f := &weighted{}
	if len(weights) <= len(f.inline) {
		f.w = f.inline[:len(weights):len(weights)]
	} else {
		f.w = make([]float64, len(weights))
	}
	// The name is fmt's %g of each weight, built in one allocation: room
	// for the longest shortest-form float64 (24 bytes) per weight.
	var name strings.Builder
	name.Grow(len("wsum()") + 25*len(weights))
	name.WriteString("wsum(")
	var num [32]byte
	for i, x := range weights {
		if x < 0 || math.IsNaN(x) {
			panic(fmt.Sprintf("score: Weighted weight %d is %v, must be >= 0", i, x))
		}
		f.w[i] = x
		if i > 0 {
			name.WriteByte(',')
		}
		name.Write(strconv.AppendFloat(num[:0], x, 'g', -1, 64))
	}
	name.WriteByte(')')
	f.name = name.String()
	return f
}

func (f *weighted) Name() string { return f.name }
func (f *weighted) Arity() int   { return len(f.w) }
func (f *weighted) Shape() Shape { return ShapeMeanLike }

// Weights returns a copy of the weight vector. It is used by the
// Strategies scheme to bias depths proportionally to weights.
func (f *weighted) Weights() []float64 {
	out := make([]float64, len(f.w))
	copy(out, f.w)
	return out
}

// Weight returns w_i without copying the vector.
func (f *weighted) Weight(i int) float64 { return f.w[i] }

func (f *weighted) Eval(scores []float64) float64 {
	sum := 0.0
	for i, s := range scores {
		sum += f.w[i] * s
	}
	return sum
}

func (f *weighted) Derivative(scores []float64, i int) (float64, bool) {
	return f.w[i], true
}

// Weighter is implemented by weighted sums, F = sum_i w_i * x_i over
// Arity() weights, so two Weighters with equal weights are one function.
// The optimizer uses it to scale depths, and the plan cache to find the
// cached plan of the nearest weights, reading them through Weight, which
// does not allocate.
type Weighter interface {
	Func
	Weights() []float64
	Weight(i int) float64
}

// product implements F = x_1 * ... * x_m.
type product struct{}

// Product returns the product scoring function. Like min it is dominated
// by small arguments, so it classifies as min-like.
func Product() Func { return product{} }

func (product) Name() string { return "product" }
func (product) Arity() int   { return 0 }
func (product) Shape() Shape { return ShapeMinLike }

func (product) Eval(scores []float64) float64 {
	p := 1.0
	for _, s := range scores {
		p *= s
	}
	return p
}

func (product) Derivative(scores []float64, i int) (float64, bool) {
	d := 1.0
	for j, s := range scores {
		if j != i {
			d *= s
		}
	}
	return d, true
}

// geometric implements F = (x_1 * ... * x_m)^(1/m).
type geometric struct{}

// Geometric returns the geometric-mean scoring function.
func Geometric() Func { return geometric{} }

func (geometric) Name() string { return "geomean" }
func (geometric) Arity() int   { return 0 }
func (geometric) Shape() Shape { return ShapeMinLike }

func (geometric) Eval(scores []float64) float64 {
	p := 1.0
	for _, s := range scores {
		p *= s
	}
	return math.Pow(p, 1/float64(len(scores)))
}

func (geometric) Derivative(scores []float64, i int) (float64, bool) {
	// d/dx_i (prod x)^(1/m) = F / (m * x_i); undefined at x_i == 0.
	if scores[i] == 0 {
		return 0, false
	}
	g := geometric{}.Eval(scores)
	return g / (float64(len(scores)) * scores[i]), true
}

// orderStat implements F = the j-th largest argument (1-based). It
// generalizes min (j = m), max (j = 1), and the median: an object scores
// well when at least j of its predicates score well, the "quantile
// semantics" of soft conjunctions. Order statistics are monotone —
// raising any coordinate can only raise the j-th largest — so they slot
// into the framework like any other Func.
type orderStat struct {
	j int
}

// OrderStatistic returns the j-th-largest scoring function (1-based:
// j = 1 is max). It panics for j < 1; arity is flexible, and j is clamped
// to the argument count at evaluation (so j = 2 over one predicate is that
// predicate).
func OrderStatistic(j int) Func {
	if j < 1 {
		panic(fmt.Sprintf("score: OrderStatistic(%d): j must be >= 1", j))
	}
	return orderStat{j: j}
}

// Median returns the lower-median order statistic evaluated dynamically
// per arity: the ceil(m/2)-th largest argument. Note its Arity is open, so
// the rank adapts to the query's predicate count.
func Median() Func { return medianFunc{} }

func (f orderStat) Name() string { return fmt.Sprintf("kth-largest(%d)", f.j) }
func (f orderStat) Arity() int   { return 0 }
func (f orderStat) Shape() Shape {
	// Like min, the value is pinned by a low coordinate once fewer than j
	// coordinates can exceed it; focused strategies tend to apply.
	return ShapeMinLike
}

func (f orderStat) Eval(scores []float64) float64 {
	return kthLargest(scores, f.j)
}

func (f orderStat) Derivative(scores []float64, i int) (float64, bool) {
	return 0, false // piecewise selection, no useful steering derivative
}

type medianFunc struct{}

func (medianFunc) Name() string { return "median" }
func (medianFunc) Arity() int   { return 0 }
func (medianFunc) Shape() Shape { return ShapeMinLike }

func (medianFunc) Eval(scores []float64) float64 {
	return kthLargest(scores, (len(scores)+1)/2)
}

func (medianFunc) Derivative(scores []float64, i int) (float64, bool) {
	return 0, false
}

// kthLargest selects the j-th largest value (j clamped to len(xs)) by
// insertion into a small descending prefix; m is tiny, so O(m*j) beats
// sorting a copy.
func kthLargest(xs []float64, j int) float64 {
	if j > len(xs) {
		j = len(xs)
	}
	top := make([]float64, 0, j)
	for _, x := range xs {
		pos := len(top)
		for pos > 0 && top[pos-1] < x {
			pos--
		}
		if pos < j {
			if len(top) < j {
				top = append(top, 0)
			}
			copy(top[pos+1:], top[pos:len(top)-1])
			top[pos] = x
		}
	}
	return top[len(top)-1]
}

// ByName returns the built-in function with the given name: "min", "max",
// "avg", "product", "geomean", "median". It is a convenience for
// command-line tools; weighted sums and order statistics must be
// constructed with Weighted and OrderStatistic.
func ByName(name string) (Func, error) {
	switch name {
	case "min":
		return Min(), nil
	case "max":
		return Max(), nil
	case "avg":
		return Avg(), nil
	case "product":
		return Product(), nil
	case "geomean":
		return Geometric(), nil
	case "median":
		return Median(), nil
	default:
		return nil, fmt.Errorf("score: unknown function %q", name)
	}
}
