package access

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPermPrefixIsPerm holds permPrefix to the prefix of rand.Perm under
// the same seed, whatever the share of n drawn.
func TestPermPrefixIsPerm(t *testing.T) {
	for _, c := range []struct{ n, s int }{{1, 1}, {2, 1}, {10, 10}, {100, 7}, {5000, 50}, {100000, 1000}} {
		for seed := int64(0); seed < 4; seed++ {
			got := permPrefix(rand.New(rand.NewSource(seed)), c.n, c.s)
			want := rand.New(rand.NewSource(seed)).Perm(c.n)[:c.s]
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d s=%d seed %d: %v, Perm has %v", c.n, c.s, seed, got[:min(8, c.s)], want[:min(8, c.s)])
			}
		}
	}
}
