//go:build !race

package main

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/data"
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
// three topkd -shard servers over zipf n=1e5 × 3 allocates at most half of
// what data.Generate alone allocates for the same parameters. A node that
// materializes the dataset, or partitions it into every shard's slice,
// allocates about twice Generate; one that draws the rows and keeps its
// own allocates its slice, its sorted lists and an n-sized id map.
func TestShardNodeFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 1e5-object dataset")
	}
	const n, m, seed = 100_000, 3, 1
	generate := allocated(func() {
		if _, err := data.Generate(data.Zipf, n, m, seed); err != nil {
			t.Fatal(err)
		}
	})
	for shard := 0; shard < 3; shard++ {
		c, err := parseFlags([]string{"-dist", "zipf", "-n", strconv.Itoa(n), "-m", strconv.Itoa(m), "-seed", strconv.Itoa(seed),
			"-shards", "3", "-shard", strconv.Itoa(shard)})
		if err != nil {
			t.Fatal(err)
		}
		built := allocated(func() {
			if _, err := buildShard(c); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("shard %d of 3: %.2f MB allocated, %.2fx Generate's %.2f MB", shard, float64(built)/1e6, float64(built)/float64(generate), float64(generate)/1e6)
		if built > generate/2 {
			t.Errorf("building shard %d of 3 allocated %d bytes, over half of Generate's %d", shard, built, generate)
		}
	}
}
