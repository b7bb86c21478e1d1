//go:build !race

package data

import (
	"runtime"
	"testing"
)

// TestDatasetFootprint holds an in-memory dataset to its rows and sorted
// views: generating zipf n=1e5 × 3 allocates at most 1.1 × n·m·(8 + 4)
// bytes, a float64 score and an int32 sorted-view entry per cell. A row
// header per object, a second copy of the rows or 64-bit sorted views each
// break it.
func TestDatasetFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 1e5-object dataset")
	}
	const n, m = 100_000, 3
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Generate(Zipf, n, m, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, cells := after.TotalAlloc-before.TotalAlloc, uint64(n*m)
	t.Logf("Generate(zipf, %d, %d): %.2f MB allocated, %.2f B per cell", n, m, float64(got)/1e6, float64(got)/float64(cells))
	if limit := cells * 12 * 11 / 10; got > limit {
		t.Errorf("Generate(zipf, %d, %d) allocated %d bytes, over 1.1 × n·m·12 = %d", n, m, got, limit)
	}
}
