//go:build !race

package main

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/cluster"
)

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestShardNodeFootprint holds a shard node to its slice: building one of
// three topkd -shard servers over zipf n=1e5 × 3 allocates at most 1.5×
// what the slice itself holds, localN·(8m + 4m + 8) bytes — a float64 score
// and an int32 sorted-view entry per cell, and a global id per object. A
// node that materializes the dataset, partitions it into every shard's
// slice, copies its rows twice or builds an id map sized by n breaks it.
func TestShardNodeFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 1e5-object dataset")
	}
	const n, m, seed = 100_000, 3, 1
	ring, err := cluster.NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 3; shard++ {
		c, err := parseFlags([]string{"-dist", "zipf", "-n", strconv.Itoa(n), "-m", strconv.Itoa(m), "-seed", strconv.Itoa(seed),
			"-shards", "3", "-shard", strconv.Itoa(shard)})
		if err != nil {
			t.Fatal(err)
		}
		localN := 0
		for u := 0; u < n; u++ {
			if ring.Owner(u) == shard {
				localN++
			}
		}
		slice := uint64(localN * (8*m + 4*m + 8))
		built := allocated(func() {
			if _, err := buildShard(c); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("shard %d of 3: %.2f MB allocated, %.2fx its slice's %.2f MB (%d objects)", shard, float64(built)/1e6, float64(built)/float64(slice), float64(slice)/1e6, localN)
		if built > slice*3/2 {
			t.Errorf("building shard %d of 3 allocated %d bytes, over 1.5× its slice's %d", shard, built, slice)
		}
	}
}
