// Package datatest provides panic-on-error dataset constructors for tests
// and benchmarks. The production constructors in internal/data return
// errors (the serving path must never panic — see topklint's nopanic
// analyzer); fixtures with known-good literal parameters keep the
// one-line convenience here instead, outside every serving package.
package datatest

import (
	"repro/internal/data"
)

// MustGenerate is data.Generate that panics on error, for fixtures with
// known-good parameters.
func MustGenerate(dist data.Distribution, n, m int, seed int64) *data.Dataset {
	d, err := data.Generate(dist, n, m, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// MustNew is data.New that panics on error, for literal score tables.
func MustNew(name string, scores [][]float64) *data.Dataset {
	d, err := data.New(name, scores)
	if err != nil {
		panic(err)
	}
	return d
}

// MustDummySample is data.DummySample that panics on error.
func MustDummySample(s, m int, seed int64) *data.Dataset {
	d, err := data.DummySample(s, m, seed)
	if err != nil {
		panic(err)
	}
	return d
}
