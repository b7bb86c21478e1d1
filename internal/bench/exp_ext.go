package bench

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/score"
	"repro/internal/stats"
)

// RunE11 is an extension experiment (beyond the paper's evaluation):
// approximate top-k in the NC framework. The framework's bound intervals
// support the classic theta = (1+epsilon) guarantee of the TA family; we
// sweep epsilon and report the access-cost saving and how many answers
// were emitted approximately. Expected shape: cost falls monotonically
// with epsilon, steeply in sorted-only scenarios where exact resolution is
// what forces deep list drains.
func RunE11(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "E11",
		Title:  "extension: approximate top-k — cost vs epsilon",
		Header: []string{"scenario", "epsilon", "cost", "vs exact", "approx items"},
	}
	type scenario struct {
		name string
		scn  access.Scenario
		h    []float64
		f    score.Func
	}
	scns := []scenario{
		{"sorted-only, avg, m=3", access.MatrixCell(3, access.Cheap, access.Impossible, 10), []float64{0, 0, 0}, score.Avg()},
		{"expensive probes, avg, m=2", access.Uniform(2, 1, 10), []float64{0.3, 0.3}, score.Avg()},
	}
	epsilons := []float64{0, 0.1, 0.25, 0.4, 0.5, 0.75}
	for _, sc := range scns {
		ds, err := data.Generate(data.Uniform, cfg.N, len(sc.h), cfg.Seed)
		if err != nil {
			return nil, err
		}
		var exact access.Cost
		for _, eps := range epsilons {
			sel, err := algo.NewSRG(sc.h, nil)
			if err != nil {
				return nil, err
			}
			sess, err := access.NewSession(access.DatasetBackend{DS: ds}, sc.scn)
			if err != nil {
				return nil, err
			}
			prob, err := algo.NewProblem(sc.f, cfg.K, sess)
			if err != nil {
				return nil, err
			}
			res, err := (&algo.NC{Sel: sel, Epsilon: eps}).Run(prob)
			if err != nil {
				return nil, err
			}
			if eps == 0 {
				exact = res.Cost()
			}
			approxItems := 0
			for _, it := range res.Items {
				if !it.Exact {
					approxItems++
				}
			}
			t.AddRow(sc.name, fmt.Sprintf("%.2f", eps), costStr(res.Cost()), pct(res.Cost(), exact), approxItems)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: cost is non-increasing in epsilon, with a knee once the slack covers the bound interval of borderline candidates;",
		"savings are largest where exactness forces deep sorted drains",
		"extension beyond the paper: (1+epsilon)-approximation layered on Framework NC's bound intervals")
	return t, nil
}

// RunE12 is an extension experiment refining E8(c): the three sample
// provenances of Section 7.3 — dummy uniform samples, histogram-
// synthesized samples (offline statistics, independence assumed), and
// real data samples — across score distributions. Expected shape: dummy
// samples suffice for uniform data; histogram samples recover most of the
// gap on skewed marginals; only real samples capture cross-predicate
// correlation (the anticorrelated row).
func RunE12(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "E12",
		Title:  "extension: optimizer sample provenance across distributions",
		Header: []string{"distribution", "sample", "realized cost", "vs best"},
	}
	grid := 7
	if cfg.Quick {
		grid = 5
	}
	scn := access.Uniform(2, 1, 10)
	f := score.Avg()
	sampleSize := 60
	for _, dist := range []data.Distribution{data.Uniform, data.Skewed, data.AntiCorrelated} {
		ds, err := data.Generate(dist, cfg.N, 2, cfg.Seed)
		if err != nil {
			return nil, err
		}
		hists, err := stats.Collect(ds, 16)
		if err != nil {
			return nil, err
		}
		histSample, err := stats.SynthesizeSample(hists, sampleSize, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sampled, err := realSample(ds, sampleSize, cfg.Seed)
		if err != nil {
			return nil, err
		}
		variants := []struct {
			name string
			cfg  opt.Config
		}{
			{"dummy uniform", opt.Config{Grid: grid, Seed: cfg.Seed, SampleSize: sampleSize}},
			{"histogram-synthesized", opt.Config{Grid: grid, Seed: cfg.Seed, Sample: histSample}},
			{"real sample", opt.Config{Grid: grid, Seed: cfg.Seed, Sample: sampled}},
		}
		costs := make([]access.Cost, len(variants))
		best := access.Cost(-1)
		for i, v := range variants {
			c, _, err := runOptimized(v.cfg, ds, scn, f, cfg.K)
			if err != nil {
				return nil, err
			}
			costs[i] = c
			if best < 0 || c < best {
				best = c
			}
		}
		for i, v := range variants {
			t.AddRow(dist.String(), v.name, costStr(costs[i]), pct(costs[i], best))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: all provenances tie on uniform data; histogram samples track skewed marginals; real samples additionally capture correlation",
		"extension refining Section 7.3's sample discussion (E8c)")
	return t, nil
}
