package score

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// allFuncs returns one instance of every built-in function usable at the
// given arity.
func allFuncs(m int) []Func {
	fs := []Func{Min(), Max(), Avg(), Product(), Geometric()}
	w := make([]float64, m)
	for i := range w {
		w[i] = float64(i+1) / float64(m)
	}
	fs = append(fs, Weighted(w...))
	return fs
}

func clampVec(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		x = math.Abs(x)
		x -= math.Floor(x) // fold into [0,1)
		out[i] = x
	}
	return out
}

func TestEvalKnownValues(t *testing.T) {
	cases := []struct {
		f    Func
		in   []float64
		want float64
	}{
		{Min(), []float64{0.7, 0.9}, 0.7},
		{Min(), []float64{0.3, 0.3, 0.3}, 0.3},
		{Max(), []float64{0.7, 0.9}, 0.9},
		{Avg(), []float64{0.7, 0.9}, 0.8},
		{Avg(), []float64{1, 0, 1}, 2.0 / 3},
		{Product(), []float64{0.5, 0.5}, 0.25},
		{Geometric(), []float64{0.25, 1}, 0.5},
		{Weighted(2, 1), []float64{0.5, 1}, 2.0},
		{Weighted(0.5, 0.5), []float64{0.7, 0.9}, 0.8},
	}
	for _, c := range cases {
		got := c.f.Eval(c.in)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %g, want %g", c.f.Name(), c.in, got, c.want)
		}
	}
}

func TestMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 2, 3, 5} {
		for _, f := range allFuncs(m) {
			f := f
			prop := func(a, b []float64) bool {
				if len(a) < m || len(b) < m {
					return true
				}
				x := clampVec(a[:m])
				bump := clampVec(b[:m])
				y := make([]float64, m)
				for i := range y {
					y[i] = math.Min(1, x[i]+bump[i])
				}
				return f.Eval(x) <= f.Eval(y)+1e-12
			}
			cfg := &quick.Config{MaxCount: 200, Rand: rng}
			if err := quick.Check(prop, cfg); err != nil {
				t.Errorf("monotonicity violated for %s at m=%d: %v", f.Name(), m, err)
			}
		}
	}
}

func TestRangeProperty(t *testing.T) {
	// Built-ins with normalized weights must map [0,1]^m into [0,1].
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 2, 4} {
		w := make([]float64, m)
		for i := range w {
			w[i] = 1 / float64(m)
		}
		fs := []Func{Min(), Max(), Avg(), Product(), Geometric(), Weighted(w...)}
		for _, f := range fs {
			f := f
			prop := func(a []float64) bool {
				if len(a) < m {
					return true
				}
				x := clampVec(a[:m])
				v := f.Eval(x)
				return v >= -1e-12 && v <= 1+1e-12
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
				t.Errorf("range violated for %s at m=%d: %v", f.Name(), m, err)
			}
		}
	}
}

func TestDerivativeApplicability(t *testing.T) {
	pt := []float64{0.4, 0.6}
	if _, ok := Min().Derivative(pt, 0); ok {
		t.Error("min should report derivative indicator inapplicable")
	}
	if _, ok := Max().Derivative(pt, 0); ok {
		t.Error("max should report derivative indicator inapplicable")
	}
	if d, ok := Avg().Derivative(pt, 0); !ok || math.Abs(d-0.5) > 1e-12 {
		t.Errorf("avg derivative = %v,%v want 0.5,true", d, ok)
	}
	if d, ok := Weighted(3, 1).Derivative(pt, 0); !ok || d != 3 {
		t.Errorf("wsum derivative = %v,%v want 3,true", d, ok)
	}
	if d, ok := Product().Derivative(pt, 0); !ok || math.Abs(d-0.6) > 1e-12 {
		t.Errorf("product derivative = %v,%v want 0.6,true", d, ok)
	}
	if _, ok := Geometric().Derivative([]float64{0, 0.5}, 0); ok {
		t.Error("geomean derivative at zero should be inapplicable")
	}
	if d, ok := Geometric().Derivative([]float64{1, 1}, 0); !ok || math.Abs(d-0.5) > 1e-12 {
		t.Errorf("geomean derivative at (1,1) = %v,%v want 0.5,true", d, ok)
	}
}

func TestDerivativeMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const h = 1e-6
	for _, m := range []int{2, 3} {
		for _, f := range allFuncs(m) {
			for trial := 0; trial < 50; trial++ {
				x := make([]float64, m)
				for i := range x {
					x[i] = 0.1 + 0.8*rng.Float64()
				}
				for i := 0; i < m; i++ {
					d, ok := f.Derivative(x, i)
					if !ok {
						continue
					}
					xp := append([]float64(nil), x...)
					xp[i] += h
					fd := (f.Eval(xp) - f.Eval(x)) / h
					if math.Abs(fd-d) > 1e-4 {
						t.Fatalf("%s d/dx_%d at %v: analytic %g vs finite-diff %g", f.Name(), i, x, d, fd)
					}
				}
			}
		}
	}
}

func TestShapes(t *testing.T) {
	cases := map[string]Shape{
		"min":     ShapeMinLike,
		"max":     ShapeMaxLike,
		"avg":     ShapeMeanLike,
		"product": ShapeMinLike,
		"geomean": ShapeMinLike,
	}
	for name, want := range cases {
		f, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if f.Shape() != want {
			t.Errorf("%s shape = %v, want %v", name, f.Shape(), want)
		}
	}
	if Weighted(1, 2).Shape() != ShapeMeanLike {
		t.Error("weighted sum should be mean-like")
	}
	if ShapeOther.String() != "other" || ShapeMinLike.String() != "min-like" ||
		ShapeMeanLike.String() != "mean-like" || ShapeMaxLike.String() != "max-like" {
		t.Error("Shape.String mismatch")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(Min(), 3); err != nil {
		t.Errorf("min at m=3: %v", err)
	}
	if err := Validate(Weighted(1, 2), 2); err != nil {
		t.Errorf("wsum(1,2) at m=2: %v", err)
	}
	if err := Validate(Weighted(1, 2), 3); err == nil {
		t.Error("wsum(1,2) at m=3 should fail")
	}
	if err := Validate(Min(), 0); err == nil {
		t.Error("m=0 should fail")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("harmonic"); err == nil {
		t.Error("ByName(harmonic) should fail")
	}
}

func TestWeightedPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("empty", func() { Weighted() })
	assertPanics("negative", func() { Weighted(0.5, -0.1) })
	assertPanics("nan", func() { Weighted(math.NaN()) })
}

func TestWeighterInterface(t *testing.T) {
	f := Weighted(0.25, 0.75)
	w, ok := f.(Weighter)
	if !ok {
		t.Fatal("weighted sum should implement Weighter")
	}
	ws := w.Weights()
	if len(ws) != 2 || ws[0] != 0.25 || ws[1] != 0.75 {
		t.Errorf("Weights() = %v", ws)
	}
	ws[0] = 99 // must not alias internal state
	if f.Eval([]float64{1, 0}) != 0.25 {
		t.Error("Weights() must return a copy")
	}
	// Weights past the inline block live in their own array, copied too.
	in := make([]float64, 12)
	for i := range in {
		in[i] = float64(i)
	}
	w = Weighted(in...).(Weighter)
	in[11] = 99
	if w.Arity() != 12 || w.Weight(11) != 11 || w.Eval(in) != 11*99+10*10+9*9+8*8+7*7+6*6+5*5+4*4+3*3+2*2+1 {
		t.Errorf("12 weights: arity %d, w_11 %v, F = %v", w.Arity(), w.Weight(11), w.Eval(in))
	}
}

func BenchmarkEvalAvg(b *testing.B) {
	f := Avg()
	x := []float64{0.1, 0.9, 0.5, 0.7}
	for i := 0; i < b.N; i++ {
		_ = f.Eval(x)
	}
}

func BenchmarkEvalWeighted(b *testing.B) {
	f := Weighted(0.1, 0.2, 0.3, 0.4)
	x := []float64{0.1, 0.9, 0.5, 0.7}
	for i := 0; i < b.N; i++ {
		_ = f.Eval(x)
	}
}

// TestWeightedNameIsFmtG holds the weighted sum's name, built with
// strconv in one allocation, byte-identical to the fmt form it replaced:
// "wsum(" and each weight's %g, comma-separated, over the weights whose
// shortest form is longest or switches notation.
func TestWeightedNameIsFmtG(t *testing.T) {
	edges := []float64{
		1e-7, 0.05, 1, 1e21, 0, math.Copysign(0, -1), 1e-4, 1e-5, 123456, 1234567, 1e20,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
		math.MaxFloat64, 0.1 + 0.2, 1.0 / 3, 0.34271234567891234, math.Inf(1),
	}
	fmtName := func(w []float64) string {
		name := "wsum("
		for i, x := range w {
			if i > 0 {
				name += ","
			}
			name += fmt.Sprintf("%g", x)
		}
		return name + ")"
	}
	cases := [][]float64{edges}
	for _, x := range edges {
		cases = append(cases, []float64{x}, []float64{x, 0.5, x})
	}
	for _, w := range cases {
		if got, want := Weighted(w...).Name(), fmtName(w); got != want {
			t.Errorf("Weighted(%v).Name() = %q, fmt gives %q", w, got, want)
		}
	}
	if testing.Short() {
		return
	}
	w := []float64{0.3427123456789, 0.2, 0.4572876543211}
	// The function value with its weights inline, and the name.
	if allocs := testing.AllocsPerRun(100, func() { Weighted(w...) }); allocs > 2 {
		t.Errorf("Weighted allocates %v, want 2: its weights or its name take more than one each", allocs)
	}
}
