package data

import (
	"math"
	"testing"
)

func TestGenerateDeterminism(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Gaussian, Skewed, Correlated, AntiCorrelated} {
		a := MustGenerate(dist, 30, 3, 42)
		b := MustGenerate(dist, 30, 3, 42)
		for u := 0; u < 30; u++ {
			for i := 0; i < 3; i++ {
				if a.Score(u, i) != b.Score(u, i) {
					t.Fatalf("%v not deterministic at [%d][%d]", dist, u, i)
				}
			}
		}
		c := MustGenerate(dist, 30, 3, 43)
		same := true
		for u := 0; u < 30 && same; u++ {
			for i := 0; i < 3; i++ {
				if a.Score(u, i) != c.Score(u, i) {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%v: different seeds produced identical data", dist)
		}
	}
}

func TestGenerateBoundsAndSize(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Gaussian, Skewed, Correlated, AntiCorrelated, Zipf} {
		d := MustGenerate(dist, 200, 4, 7)
		if d.N() != 200 || d.M() != 4 {
			t.Fatalf("%v: size %dx%d", dist, d.N(), d.M())
		}
		for u := 0; u < d.N(); u++ {
			for i := 0; i < d.M(); i++ {
				s := d.Score(u, i)
				if s < 0 || s > 1 {
					t.Fatalf("%v: score out of range: %g", dist, s)
				}
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Uniform, 0, 2, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := Generate(Uniform, 2, 0, 1); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := Generate(Distribution(99), 2, 2, 1); err == nil {
		t.Error("unknown distribution should fail")
	}
}

func TestSkewedPilesNearZero(t *testing.T) {
	d := MustGenerate(Skewed, 2000, 1, 3)
	below := 0
	for u := 0; u < d.N(); u++ {
		if d.Score(u, 0) < 0.125 { // P(u^3 < 1/8) = P(u < 1/2) = 1/2
			below++
		}
	}
	frac := float64(below) / float64(d.N())
	if frac < 0.42 || frac > 0.58 {
		t.Errorf("skewed mass below 0.125 = %.2f, want ~0.5", frac)
	}
}

func pearson(d *Dataset, i, j int) float64 {
	n := float64(d.N())
	var si, sj, sii, sjj, sij float64
	for u := 0; u < d.N(); u++ {
		x, y := d.Score(u, i), d.Score(u, j)
		si += x
		sj += y
		sii += x * x
		sjj += y * y
		sij += x * y
	}
	cov := sij/n - si/n*sj/n
	vi := sii/n - si/n*si/n
	vj := sjj/n - sj/n*sj/n
	return cov / math.Sqrt(vi*vj)
}

func TestCorrelationSigns(t *testing.T) {
	cor := MustGenerate(Correlated, 1500, 2, 9)
	if r := pearson(cor, 0, 1); r < 0.5 {
		t.Errorf("correlated r = %.2f, want > 0.5", r)
	}
	anti := MustGenerate(AntiCorrelated, 1500, 2, 9)
	if r := pearson(anti, 0, 1); r > -0.2 {
		t.Errorf("anticorrelated r = %.2f, want < -0.2", r)
	}
	uni := MustGenerate(Uniform, 1500, 2, 9)
	if r := pearson(uni, 0, 1); math.Abs(r) > 0.1 {
		t.Errorf("uniform r = %.2f, want ~0", r)
	}
}

func TestZipfHeavyTail(t *testing.T) {
	d := MustGenerate(Zipf, 2000, 1, 3)
	zero, high := 0, 0
	for u := 0; u < d.N(); u++ {
		switch s := d.Score(u, 0); {
		case s == 0: // rank-0 draws: the irrelevant mass (P ~ 1/zeta(3))
			zero++
		case s >= 0.5: // rank >= 1: the thin power-law tail of answers
			high++
		}
	}
	if frac := float64(zero) / float64(d.N()); frac < 0.7 {
		t.Errorf("zipf mass at score 0 = %.2f, want > 0.7", frac)
	}
	// P(rank >= 1) = 1 - 1/zeta(3) ~ 0.17: thin but never empty.
	if frac := float64(high) / float64(d.N()); frac < 0.05 || frac > 0.3 {
		t.Errorf("zipf tail mass at score >= 0.5 = %.2f, want in [0.05, 0.3]", frac)
	}
}

func TestDistributionNames(t *testing.T) {
	for _, d := range []Distribution{Uniform, Gaussian, Skewed, Correlated, AntiCorrelated, Zipf} {
		got, err := DistributionByName(d.String())
		if err != nil || got != d {
			t.Errorf("round-trip %v failed: %v, %v", d, got, err)
		}
	}
	if _, err := DistributionByName("bogus"); err == nil {
		t.Error("bogus name should fail")
	}
	if Distribution(42).String() == "" {
		t.Error("unknown distribution should still print")
	}
}

func TestDummySample(t *testing.T) {
	s, err := DummySample(25, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 25 || s.M() != 3 {
		t.Fatalf("dummy sample size %dx%d", s.N(), s.M())
	}
}
