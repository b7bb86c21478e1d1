package access

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/data"
)

// Sample draws a without-replacement sample of s objects of b — the rows of
// rng.Perm(N)[:s] under seed, so the same seed draws the same objects from
// any backend over the same rows — and returns their scores as an
// in-memory dataset named name, for the optimizer's cost estimator
// (Section 7.3). The scores are read in one BatchRandom when b advertises
// it, else one Random per score; none of it goes through a session, so no
// query is billed for it. s is clamped to [1, N].
func Sample(ctx context.Context, b Backend, s int, seed int64, name string) (*data.Dataset, error) {
	n, m := b.N(), b.M()
	s = max(1, min(s, n))
	rows := permPrefix(rand.New(rand.NewSource(seed)), n, s)
	preds, objs := make([]int, 0, s*m), make([]int, 0, s*m)
	for _, u := range rows {
		for i := 0; i < m; i++ {
			preds, objs = append(preds, i), append(objs, u)
		}
	}
	var flat []float64
	if bb, ok := b.(BatchBackend); ok {
		var err error
		if flat, err = bb.BatchRandom(ctx, preds, objs); err != nil {
			return nil, fmt.Errorf("access: sampling %d rows: %w", s, err)
		}
	} else {
		flat = make([]float64, len(preds))
		for j := range preds {
			v, err := b.Random(ctx, preds[j], objs[j])
			if err != nil {
				return nil, fmt.Errorf("access: sampling %d rows: %w", s, err)
			}
			flat[j] = v
		}
	}
	if len(flat) != len(preds) {
		return nil, fmt.Errorf("access: sampling %d rows: %d scores for %d probes", s, len(flat), len(preds))
	}
	return data.FromSlab(name, m, flat)
}

// permPrefix returns r.Perm(n)[:s] in O(s) memory: Perm's inside-out
// shuffle moves value i into a position j ≤ i drawn at step i, so past
// step s it only ever writes i into the prefix, and the prefix never reads
// what lies beyond it. It consumes r exactly as Perm does.
func permPrefix(r *rand.Rand, n, s int) []int {
	m := make([]int, s)
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		if i < s {
			m[i] = m[j]
		}
		if j < s {
			m[j] = i
		}
	}
	return m
}
