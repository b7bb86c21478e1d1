//go:build !race

package kit

import (
	"context"
	"testing"
)

// TestAllocGates pins what the layers' own gates rely on: hits allocate
// nothing — including a string-keyed lookup from a stack-built key — and
// a new key costs its one node. (The race detector instruments
// allocations, so the gates run in ordinary builds only.)
func TestAllocGates(t *testing.T) {
	ctx := context.Background()
	p := NewPrefix(func(_ context.Context, from, want int, buf []int) ([]int, error) {
		for r := from; r <= want; r++ {
			buf = append(buf, r)
		}
		return buf, nil
	})
	if _, _, err := at(p, ctx, 63); err != nil {
		t.Fatal(err)
	}
	byString := NewLRU[string, int](4)
	byString.Put("pred=3 k=10", 1)
	byInt := NewLRU[int, int](64)
	for i := 0; i < 64; i++ {
		byInt.Put(i, i)
	}
	next := 64

	for _, g := range []struct {
		name string
		want float64
		run  func()
	}{
		{"Prefix.Read hit", 0, func() {
			var buf [8]int
			if n, hit, _ := p.Read(ctx, 17, buf[:]); !hit || n != len(buf) {
				t.Fatalf("read %d entries inside the prefix, hit %v", n, hit)
			}
		}},
		{"LRU.Get", 0, func() {
			if _, ok := byString.Get("pred=3 k=10"); !ok {
				t.Fatal("miss on a cached key")
			}
		}},
		{"GetBytes on a stack-built key", 0, func() {
			var buf [32]byte
			key := append(buf[:0], "pred=3"...)
			key = append(key, " k=10"...)
			if _, ok := GetBytes(byString, key); !ok {
				t.Fatal("miss on a cached key")
			}
		}},
		{"LRU.Put of a new key at capacity", 1, func() {
			if byInt.Put(next, next) != 1 {
				t.Fatal("no eviction at capacity")
			}
			next++
		}},
	} {
		if got := testing.AllocsPerRun(200, g.run); got != g.want {
			t.Errorf("%s: %v allocs/op, want %v", g.name, got, g.want)
		}
	}
}
