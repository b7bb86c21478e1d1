package access_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
)

// batcher advertises BatchRandom over a dataset and counts its calls.
type batcher struct {
	access.DatasetBackend
	calls int
}

func (b *batcher) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	b.calls++
	out := make([]float64, len(preds))
	for i := range preds {
		out[i] = b.DS.Score(objs[i], preds[i])
	}
	return out, nil
}

// TestSample holds the one sampler to its contract: the rows of
// rng.Perm(N)[:s] under the seed, in that order — the rows every recorded
// plan over a real sample was searched on — read in one batch when the
// backend batches and one probe at a time otherwise, with s clamped to
// [1, N].
func TestSample(t *testing.T) {
	ctx := context.Background()
	d := datatest.MustGenerate(data.Uniform, 100, 2, 1)
	must := func(b access.Backend, s int, seed int64) *data.Dataset {
		t.Helper()
		out, err := access.Sample(ctx, b, s, seed, "sample")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	s := must(access.DatasetBackend{DS: d}, 10, 2)
	if s.N() != 10 || s.M() != 2 {
		t.Fatalf("sample size %dx%d", s.N(), s.M())
	}
	for j, u := range rand.New(rand.NewSource(2)).Perm(d.N())[:10] {
		for i := 0; i < 2; i++ {
			if s.Score(j, i) != d.Score(u, i) {
				t.Fatalf("sample row %d is not object %d: p%d = %v, want %v", j, u, i+1, s.Score(j, i), d.Score(u, i))
			}
		}
	}
	b := &batcher{DatasetBackend: access.DatasetBackend{DS: d}}
	batched := must(b, 10, 2)
	if b.calls != 1 {
		t.Errorf("a batching backend was called %d times, want one batch", b.calls)
	}
	for j := 0; j < 10; j++ {
		for i := 0; i < 2; i++ {
			if batched.Score(j, i) != s.Score(j, i) {
				t.Fatalf("batched sample [%d][%d] = %v, probed %v", j, i, batched.Score(j, i), s.Score(j, i))
			}
		}
	}
	if must(access.DatasetBackend{DS: d}, 1000, 3).N() != 100 {
		t.Error("oversized sample should clamp to N")
	}
	if must(access.DatasetBackend{DS: d}, 0, 3).N() != 1 {
		t.Error("non-positive sample size should clamp to 1")
	}
	// A batch one row short still fills whole rows; the sampler refuses it
	// rather than plan on a smaller sample than it drew.
	if _, err := access.Sample(ctx, shortBatcher{b}, 10, 2, "sample"); err == nil || !strings.Contains(err.Error(), "18 scores for 20 probes") {
		t.Errorf("a batch one row short: got %v, want it refused", err)
	}
}

// shortBatcher answers every batch one row (two scores) short.
type shortBatcher struct{ *batcher }

func (b shortBatcher) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	out, err := b.batcher.BatchRandom(ctx, preds, objs)
	return out[:len(out)-2], err
}
