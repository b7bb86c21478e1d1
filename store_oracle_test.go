package topk

// The disk-store oracle: moving the data from memory to disk must be
// invisible to the query layer. A store directory built by the streaming
// generator, opened as the engine's backend, must produce byte-identical
// answers AND a byte-identical access ledger to the in-memory dataset
// generated with the same parameters — across the Figure-2 capability
// matrix, for every algorithm family (fixed-plan NC, TA, MPro), with the
// sharing layer off and on. The ledger equality is the strong half: the
// store may amortize block reads internally, but what it surfaces to the
// session — and therefore what the client is billed — must match the
// in-memory source access for access.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// newTestStore builds a store for (dist, n, m, seed) in a temp dir and
// opens it. Small blocks force multi-block segments.
func newTestStore(t *testing.T, dist string, n, m int, seed int64) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := BuildStore(dir, dist, n, m, seed, StoreWriterOptions{BlockEntries: 16}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStoreOracle(t *testing.T) {
	const (
		n = 120
		m = 2
		k = 6
	)
	ds := mustGenerateDataset(t, "uniform", n, m, 31)
	q := Query{F: Min(), K: k}

	completed := 0
	for _, cell := range figure2Cells(m, 10) {
		for _, alg := range cursorOracleAlgos() {
			for _, sharing := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s", cell.name, alg.name)
				if sharing {
					name += "/shared"
				}
				t.Run(name, func(t *testing.T) {
					opts := alg.opts(m)

					// In-memory oracle.
					memEng, err := NewEngine(matrixBackend(ds, sharing, nil), cell.scn)
					if err != nil {
						t.Skip("cell has no legal access")
					}
					mem, err := memEng.Run(q, opts...)
					if err != nil {
						t.Skipf("cell denies an access %s requires: %v", alg.name, err)
					}

					// The same query against the disk store. When sharing is
					// on the layer sits above the store, exactly as the
					// service composes it.
					var backend Backend = newTestStore(t, "uniform", n, m, 31)
					if sharing {
						backend = NewSharedAccess(backend, SharingOptions{})
					}
					diskEng, err := NewEngine(backend, cell.scn)
					if err != nil {
						t.Fatal(err)
					}
					got, err := diskEng.Run(q, opts...)
					if err != nil {
						t.Fatalf("in-memory run succeeded, disk failed: %v", err)
					}

					if !reflect.DeepEqual(got.Items, mem.Items) {
						t.Errorf("disk answers diverge from memory:\n disk   %v\n memory %v", got.Items, mem.Items)
					}
					if !reflect.DeepEqual(got.Ledger, mem.Ledger) {
						t.Errorf("disk ledger diverges from memory:\n disk   %+v\n memory %+v", got.Ledger, mem.Ledger)
					}
					if got.Truncated != mem.Truncated || !reflect.DeepEqual(got.Degraded, mem.Degraded) {
						t.Errorf("disk flags (trunc=%v degr=%v) diverge from memory (trunc=%v degr=%v)",
							got.Truncated, got.Degraded, mem.Truncated, mem.Degraded)
					}
					assertExactTopK(t, ds, q.F, k, got)
					completed++
				})
			}
		}
	}
	// The sweep must exercise the property across the matrix, not skip
	// its way to vacuous success.
	if completed < 15 {
		t.Fatalf("only %d cell/algorithm combinations completed", completed)
	}
}

// TestStoreOracleDistributions widens the oracle across score shapes at
// one representative cell: the tie-break-heavy Zipf family (most scores
// collide at the bottom ranks, so any tie-break divergence between the
// disk segments and the in-memory sorted views would surface here) plus
// the correlated/anti-correlated extremes.
func TestStoreOracleDistributions(t *testing.T) {
	const (
		n = 100
		m = 3
		k = 5
	)
	scn := UniformScenario(m, 1, 8)
	for _, dist := range []string{"zipf", "correlated", "anticorrelated"} {
		t.Run(dist, func(t *testing.T) {
			ds := mustGenerateDataset(t, dist, n, m, 7)
			st := newTestStore(t, dist, n, m, 7)
			q := Query{F: Avg(), K: k}
			memEng, err := NewEngine(DataBackend(ds), scn)
			if err != nil {
				t.Fatal(err)
			}
			diskEng, err := NewEngine(st, scn)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range []RunOption{WithOptimizer(OptimizerConfig{}), WithAlgorithm("TA")} {
				mem, err := memEng.Run(q, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := diskEng.Run(q, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Items, mem.Items) {
					t.Errorf("%s: disk answers diverge: %v vs %v", dist, got.Items, mem.Items)
				}
				if !reflect.DeepEqual(got.Ledger, mem.Ledger) {
					t.Errorf("%s: disk ledger diverges: %+v vs %+v", dist, got.Ledger, mem.Ledger)
				}
			}
		})
	}
}

// TestStoreCrashRefusal is the facade half of the crash-consistency
// contract: a store directory truncated mid-write (the torn tail of the
// last segment) must refuse to open with ErrStoreCorrupt — never open
// quietly and serve a wrong answer — and rebuilding over the damage must
// recover fully.
func TestStoreCrashRefusal(t *testing.T) {
	dir := t.TempDir()
	if err := BuildStore(dir, "uniform", 80, 2, 3, StoreWriterOptions{BlockEntries: 16}); err != nil {
		t.Fatal(err)
	}
	// Tear the last segment's tail: the fence section goes first, exactly
	// what an interrupted write leaves behind.
	seg := filepath.Join(dir, "pred_001.seg")
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-4); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("torn store must refuse with ErrStoreCorrupt, got %v", err)
	}
	// Recovery path: rebuild in place, reopen, answer correctly.
	if err := BuildStore(dir, "uniform", 80, 2, 3, StoreWriterOptions{BlockEntries: 16}); err != nil {
		t.Fatalf("rebuild over damage: %v", err)
	}
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after rebuild: %v", err)
	}
	defer s.Close()
	eng, err := NewEngine(s, UniformScenario(2, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Min(), K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds := mustGenerateDataset(t, "uniform", 80, 2, 3)
	assertExactTopK(t, ds, Min(), 4, ans)
}

// TestStorePlanCacheKeying pins how a store's calibration reaches the plan
// cache: only through the scenario it prices. Engines over one store that
// share a plan cache share plans under one pinned scenario, whatever the
// store measured, and re-key exactly when two calibrations price
// different scenarios.
func TestStorePlanCacheKeying(t *testing.T) {
	st := newTestStore(t, "uniform", 100, 2, 5)
	cache := NewPlanCache(0)
	q := Query{F: Avg(), K: 5}
	calA := StoreCalibration{SortedMS: 0.001, RandomMS: 0.02, Mode: "warm", Probes: 512}
	calB := StoreCalibration{SortedMS: 0.001, RandomMS: 0.08, Mode: "cold", Probes: 512}

	run := func(scn Scenario, misses, hits uint64) {
		t.Helper()
		eng, err := NewEngine(st, scn, WithPlanCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(q, WithOptimizer(OptimizerConfig{})); err != nil {
			t.Fatal(err)
		}
		if got := cache.Stats(); got.Misses != misses || got.Hits != hits {
			t.Fatalf("under %s: %+v, want %d misses and %d hits", scn.Name, got, misses, hits)
		}
	}
	// A pinned scenario prices nothing from a calibration: the engine a
	// boot measuring calA builds and the one a boot measuring calB builds
	// plan the same problem.
	pinned := UniformScenario(2, 1, 8)
	run(pinned, 1, 0)
	run(pinned, 1, 1)
	// Calibrated scenarios key by the costs they price: a repeat
	// calibration of unchanged physics hits, moved physics re-keys.
	run(CalibratedScenario(2, calA), 2, 1)
	run(CalibratedScenario(2, calA), 2, 2)
	run(CalibratedScenario(2, calB), 3, 2)
}
