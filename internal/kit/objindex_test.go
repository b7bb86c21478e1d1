package kit

import (
	"math/rand"
	"testing"
)

// TestObjIndexMatchesMap drives random adds, lookups and resets through
// the index and a map. Resets leave sparse full of guesses from earlier
// lives, which is the state the membership test has to see through.
func TestObjIndexMatchesMap(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(5))
	x := NewObjIndex(n)
	want := map[int]int{}
	for step := 0; step < 20000; step++ {
		u := rng.Intn(n)
		switch op := rng.Intn(100); {
		case op < 50:
			if _, had := want[u]; had {
				continue
			}
			want[u] = len(want)
			if slot := x.Add(u); slot != want[u] {
				t.Fatalf("step %d: Add(%d) = %d, want %d", step, u, slot, want[u])
			}
		case op < 99:
			slot, ok := x.Slot(u)
			if ws, had := want[u]; ok != had || (ok && slot != ws) {
				t.Fatalf("step %d: Slot(%d) = (%d, %v), want (%d, %v)", step, u, slot, ok, ws, had)
			}
		default:
			x.Reset()
			clear(want)
		}
		if x.Len() != len(want) || x.N() != n {
			t.Fatalf("step %d: Len = %d of N = %d, want %d of %d", step, x.Len(), x.N(), len(want), n)
		}
	}
}

// TestObjIndexGrow pins the capacity schedule owners size their slot arrays
// by: a small universe whole, a large one from n/32 by doubling, never past
// n, and Add within it without reallocating.
func TestObjIndexGrow(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{MinSlots, []int{MinSlots}},
		{MinSlots + 90, []int{MinSlots, MinSlots + 90}},
		{100_000, []int{MinSlots, 2 * MinSlots, 4 * MinSlots}},
		{1_000_000, []int{31_250, 62_500, 125_000}},
	} {
		x := NewObjIndex(tc.n)
		for _, want := range tc.want {
			if got := x.Grow(); got != want || x.Cap() != want {
				t.Fatalf("n=%d: Grow() = %d with Cap() = %d, want %d", tc.n, got, x.Cap(), want)
			}
		}
		for u := 0; u < tc.want[0]; u++ {
			x.Add(u)
		}
		if last := tc.want[len(tc.want)-1]; x.Cap() != last || x.Len() != tc.want[0] {
			t.Fatalf("n=%d: %d adds left Len() = %d, Cap() = %d, want %d of %d", tc.n, tc.want[0], x.Len(), x.Cap(), tc.want[0], last)
		}
	}
}
