package share_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/obs"
	"repro/internal/share"
)

// TestDiscountQuantization pins the estimator-discount contract: no
// discount before the warmup sample, 10% steps afterwards, capped so the
// optimizer never believes accesses are free.
func TestDiscountQuantization(t *testing.T) {
	cases := []struct {
		name           string
		st             share.Stats
		sorted, random float64
	}{
		{"cold", share.Stats{}, 0, 0},
		{"warming", share.Stats{SortedHits: 30, SortedMisses: 30}, 0, 0},
		{"half", share.Stats{SortedHits: 50, SortedMisses: 50}, 0.5, 0},
		{"quantized-down", share.Stats{SortedHits: 59, SortedMisses: 41}, 0.5, 0},
		{"capped", share.Stats{SortedHits: 99, SortedMisses: 1, RandomHits: 999, RandomMisses: 1}, 0.9, 0.9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sd, rd := c.st.Discounts()
			if sd != c.sorted || rd != c.random {
				t.Errorf("Discounts() = (%g, %g), want (%g, %g)", sd, rd, c.sorted, c.random)
			}
		})
	}
	st := share.Stats{SortedHits: 3, SortedMisses: 1, RandomHits: 1, RandomMisses: 3}
	if got := st.SortedHitRate(); got != 0.75 {
		t.Errorf("SortedHitRate = %g, want 0.75", got)
	}
	if got := st.RandomHitRate(); got != 0.25 {
		t.Errorf("RandomHitRate = %g, want 0.25", got)
	}
}

// TestInvalidateAndMetrics drives the operational surface: the Invalidate
// escape hatch drops all shared state, and an attached registry reads the
// layer's counters as topk_share_* series.
func TestInvalidateAndMetrics(t *testing.T) {
	ds := e1Dataset(t)
	reg := obs.NewRegistry()
	layer := share.New(access.DatasetBackend{DS: ds}, share.Options{Metrics: reg})
	ctx := context.Background()

	if layer.Unwrap().N() != ds.N() {
		t.Fatal("Unwrap() should expose the wrapped backend")
	}
	if _, _, err := layer.Sorted(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := layer.Random(ctx, 1, 3); err != nil {
		t.Fatal(err)
	}
	if layer.Depth(0) != 1 {
		t.Fatalf("depth = %d", layer.Depth(0))
	}
	layer.Invalidate()
	if layer.Depth(0) != 0 {
		t.Error("Invalidate left cursor entries behind")
	}
	// The dropped score must be refetched, not served stale.
	if _, err := layer.Random(ctx, 1, 3); err != nil {
		t.Fatal(err)
	}
	if st := layer.Stats(); st.RandomMisses != 2 {
		t.Errorf("post-invalidate probe should miss: %+v", st)
	}

	// A second layer on the same registry: the scrape reads both layers'
	// own counters and sums them, while each Stats() stays its own.
	other := share.New(access.DatasetBackend{DS: ds}, share.Options{Metrics: reg})
	if _, err := other.Random(ctx, 0, 5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	st, st2 := layer.Stats(), other.Stats()
	for _, line := range []string{
		fmt.Sprintf(`topk_share_sorted_total{result="miss"} %d`, st.SortedMisses),
		fmt.Sprintf(`topk_share_random_total{result="miss"} %d`, st.RandomMisses+st2.RandomMisses),
		fmt.Sprintf(`topk_share_invalidations_total %d`, st.Invalidations),
	} {
		if !strings.Contains(exposition, line+"\n") {
			t.Errorf("registry exposition missing %q:\n%s", line, exposition)
		}
	}
	if st.RandomMisses != 2 || st2.RandomMisses != 1 || st.SortedMisses != 1 {
		t.Errorf("Stats() = %+v / %+v, want each layer's own counts", st, st2)
	}
}
