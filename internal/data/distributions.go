package data

import (
	"fmt"
	"math"
	"math/rand"
)

// Distribution identifies a synthetic score distribution used by the
// experiment harness. The paper's evaluation spans "a wider range of
// synthesized middleware settings"; these are the standard families in the
// top-k literature.
type Distribution int

const (
	// Uniform draws every predicate score iid uniformly from [0,1].
	Uniform Distribution = iota
	// Gaussian draws scores from a clipped normal N(0.5, 0.15^2).
	Gaussian
	// Skewed draws scores u^theta (theta > 1), piling mass near 0; the
	// sorted lists then drop fast at the top, which is where skew matters
	// for access scheduling.
	Skewed
	// Correlated draws predicate scores around a shared per-object latent
	// value, so lists agree (easy case: top objects surface everywhere).
	Correlated
	// AntiCorrelated makes predicates trade off against each other (hard
	// case: objects good on one list are bad on others), the classic
	// adversarial workload for threshold algorithms.
	AntiCorrelated
	// Zipf maps a Zipf(s=3)-drawn rank r to score r/(1+r): the
	// overwhelming mass scores 0 while a thin power-law tail approaches
	// 1 — the web-source regime (a few strong answers, a long
	// irrelevant tail) the cluster throughput workloads run at n=10^6,
	// where the working set outgrows CPU caches. The top of each sorted
	// list then drops off polynomially, so threshold drains terminate
	// at depths ~sqrt-of-n instead of Θ(n).
	Zipf
)

// String returns the distribution name.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Gaussian:
		return "gaussian"
	case Skewed:
		return "skewed"
	case Correlated:
		return "correlated"
	case AntiCorrelated:
		return "anticorrelated"
	case Zipf:
		return "zipf"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// DistributionByName parses a distribution name as printed by String.
func DistributionByName(name string) (Distribution, error) {
	for _, d := range []Distribution{Uniform, Gaussian, Skewed, Correlated, AntiCorrelated, Zipf} {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("data: unknown distribution %q", name)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// GeneratorVersion identifies the score-generation procedure. It is part
// of the disk-store dataset cache key (see internal/store and the CI
// storage job): any change to how Stream draws scores — a new rng
// consumption order, different constants — must bump it, or a cached
// on-disk dataset would silently diverge from what Generate builds in
// memory for the same (dist, n, m, seed).
const GeneratorVersion = 1

// rowGenerator produces one object's scores at a time, in object order,
// consuming its rng deterministically so Generate and Stream yield
// bit-identical scores for equal parameters.
type rowGenerator struct {
	dist    Distribution
	rng     *rand.Rand
	zipf    *rand.Zipf
	weights []float64 // anticorrelated scratch
}

func newRowGenerator(dist Distribution, n, m int, seed int64) (*rowGenerator, error) {
	switch dist {
	case Uniform, Gaussian, Skewed, Correlated, AntiCorrelated, Zipf:
	default:
		return nil, fmt.Errorf("data: unknown distribution %v", dist)
	}
	g := &rowGenerator{dist: dist, rng: rand.New(rand.NewSource(seed))}
	if dist == Zipf {
		// One generator for the whole dataset: rank draws are iid across
		// objects and predicates, so scores stay exchangeable per cell.
		g.zipf = rand.NewZipf(g.rng, 3, 1, uint64(n-1))
	}
	if dist == AntiCorrelated {
		g.weights = make([]float64, m)
	}
	return g, nil
}

// fill writes the next object's scores into row.
func (g *rowGenerator) fill(row []float64) {
	switch g.dist {
	case Uniform:
		for i := range row {
			row[i] = g.rng.Float64()
		}
	case Gaussian:
		for i := range row {
			row[i] = clamp01(0.5 + 0.15*g.rng.NormFloat64())
		}
	case Skewed:
		const theta = 3.0
		for i := range row {
			row[i] = math.Pow(g.rng.Float64(), theta)
		}
	case Correlated:
		latent := g.rng.Float64()
		for i := range row {
			row[i] = clamp01(latent + 0.1*g.rng.NormFloat64())
		}
	case AntiCorrelated:
		// Distribute a shared budget across predicates with jitter:
		// high score on one predicate implies low scores elsewhere.
		budget := 0.4 + 0.2*g.rng.Float64() // per-predicate average
		m := len(row)
		sum := 0.0
		for i := range g.weights {
			g.weights[i] = g.rng.ExpFloat64()
			sum += g.weights[i]
		}
		for i := range row {
			row[i] = clamp01(budget*float64(m)*g.weights[i]/sum + 0.05*g.rng.NormFloat64())
		}
	case Zipf:
		for i := range row {
			r := float64(g.zipf.Uint64())
			row[i] = r / (1 + r)
		}
	}
}

// Stream synthesizes the same scores Generate would — bit-identical for
// equal (dist, n, m, seed) — but delivers them one object at a time
// through emit(obj, scores) without materializing the dataset. The row
// slice is reused between calls; emit must copy what it keeps. A non-nil
// error from emit aborts the stream. This is the write path for disk-
// backed datasets at n >= 10^6, where an in-memory Dataset (score matrix
// plus m sorted views) would cost multiples of the raw score payload.
func Stream(dist Distribution, n, m int, seed int64, emit func(obj int, scores []float64) error) error {
	if n <= 0 || m <= 0 {
		return fmt.Errorf("data: Stream(n=%d, m=%d) requires positive sizes", n, m)
	}
	g, err := newRowGenerator(dist, n, m, seed)
	if err != nil {
		return err
	}
	row := make([]float64, m)
	for u := 0; u < n; u++ {
		g.fill(row)
		if err := emit(u, row); err != nil {
			return err
		}
	}
	return nil
}

// Generate synthesizes a dataset of n objects and m predicates from the
// given distribution, deterministically for a given seed.
func Generate(dist Distribution, n, m int, seed int64) (*Dataset, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("data: Generate(n=%d, m=%d) requires positive sizes", n, m)
	}
	scores := make([][]float64, n)
	flat := make([]float64, n*m)
	err := Stream(dist, n, m, seed, func(u int, row []float64) error {
		dst := flat[u*m : (u+1)*m : (u+1)*m]
		copy(dst, row)
		scores[u] = dst
		return nil
	})
	if err != nil {
		return nil, err
	}
	return New(GeneratedName(dist, n, m, seed), scores)
}

// GeneratedName is the name Generate gives its dataset, for the builders
// that draw the same rows through Stream instead.
func GeneratedName(dist Distribution, n, m int, seed int64) string {
	return fmt.Sprintf("%s(n=%d,m=%d,seed=%d)", dist, n, m, seed)
}

// Sample draws a without-replacement random sample of s objects from ds,
// deterministically for a given seed, and returns it as a new dataset.
// It is used by the optimizer's cost estimator (Section 7.3) when real
// samples are available. s is clamped to ds.N().
func Sample(ds *Dataset, s int, seed int64) (*Dataset, error) {
	n := ds.N()
	if s > n {
		s = n
	}
	if s <= 0 {
		s = 1
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)[:s]
	scores := make([][]float64, s)
	for j, u := range perm {
		scores[j] = ds.Scores(u)
	}
	return New(fmt.Sprintf("%s/sample(%d,seed=%d)", ds.Name(), s, seed), scores)
}

// DummySample synthesizes a sample of s objects and m predicates from an
// assumed uniform distribution, as Section 7.3 prescribes "when samples
// are unavailable or too costly to obtain online". Such samples cannot
// reflect the real score distribution but still let the optimizer adapt to
// the scoring function, k, and the cost scenario — the paper's worst-case
// validation setting, and our default.
func DummySample(s, m int, seed int64) (*Dataset, error) {
	return Generate(Uniform, s, m, seed)
}
