package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/data"
)

// buildSmall writes a generated dataset to a fresh store dir and returns
// both representations plus the open store.
func buildSmall(t *testing.T, dist data.Distribution, n, m int, seed int64, opts WriterOptions) (*data.Dataset, *Store) {
	t.Helper()
	dir := t.TempDir()
	if err := WriteStream(dir, dist, n, m, seed, opts); err != nil {
		t.Fatalf("WriteStream: %v", err)
	}
	ds, err := data.Generate(dist, n, m, seed)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return ds, s
}

// TestStoreRoundTrip pins the core contract: a store written by the
// streaming generator serves bit-identical sorted lists and point scores
// to the in-memory dataset generated with the same parameters — including
// the (score desc, id desc) tie-break the rest of the system assumes.
func TestStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, dist := range []data.Distribution{data.Uniform, data.Zipf, data.Correlated, data.AntiCorrelated} {
		// Block size 16 forces multi-block segments at n=100.
		ds, s := buildSmall(t, dist, 100, 3, 42, WriterOptions{BlockEntries: 16})
		if s.N() != ds.N() || s.M() != ds.M() {
			t.Fatalf("%v: store is %dx%d, dataset %dx%d", dist, s.N(), s.M(), ds.N(), ds.M())
		}
		for pred := 0; pred < ds.M(); pred++ {
			for rank := 0; rank < ds.N(); rank++ {
				wantObj, wantScore := ds.SortedAt(pred, rank)
				obj, score, err := s.Sorted(ctx, pred, rank)
				if err != nil {
					t.Fatalf("%v: Sorted(%d,%d): %v", dist, pred, rank, err)
				}
				if obj != wantObj || score != wantScore {
					t.Fatalf("%v: Sorted(%d,%d) = (u%d, %v), dataset has (u%d, %v)",
						dist, pred, rank, obj, score, wantObj, wantScore)
				}
			}
			for obj := 0; obj < ds.N(); obj++ {
				got, err := s.Random(ctx, pred, obj)
				if err != nil {
					t.Fatalf("%v: Random(%d,%d): %v", dist, pred, obj, err)
				}
				if got != ds.Score(obj, pred) {
					t.Fatalf("%v: Random(%d,%d) = %v, dataset has %v", dist, pred, obj, got, ds.Score(obj, pred))
				}
			}
		}
	}
}

// TestWriteDatasetMatchesWriteStream checks the two build paths produce
// byte-identical stores.
func TestWriteDatasetMatchesWriteStream(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := WriteStream(dirA, data.Skewed, 50, 2, 7, WriterOptions{BlockEntries: 8}); err != nil {
		t.Fatalf("WriteStream: %v", err)
	}
	ds, err := data.Generate(data.Skewed, 50, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(dirB, ds, WriterOptions{BlockEntries: 8, GeneratorVersion: data.GeneratorVersion}); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	for _, name := range []string{"scores.dat", "pred_000.seg", "pred_001.seg"} {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between stream and dataset builds", name)
		}
	}
}

// TestStoreBatchRandom checks batched probes return scores in request
// order regardless of the internal offset-ordered issue.
func TestStoreBatchRandom(t *testing.T) {
	ds, s := buildSmall(t, data.Uniform, 40, 3, 11, WriterOptions{BlockEntries: 8})
	preds := []int{2, 0, 1, 0, 2}
	objs := []int{39, 0, 17, 39, 1}
	got, err := s.BatchRandom(context.Background(), preds, objs)
	if err != nil {
		t.Fatalf("BatchRandom: %v", err)
	}
	for i := range preds {
		if want := ds.Score(objs[i], preds[i]); got[i] != want {
			t.Fatalf("batch[%d] = %v, want %v", i, got[i], want)
		}
	}
	if _, err := s.BatchRandom(context.Background(), []int{0}, []int{1, 2}); err == nil {
		t.Fatal("mismatched batch lengths: want error")
	}
}

// TestStoreContextAndBounds checks the context-first discipline and
// range validation.
func TestStoreContextAndBounds(t *testing.T) {
	_, s := buildSmall(t, data.Uniform, 20, 2, 3, WriterOptions{BlockEntries: 8})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Sorted(canceled, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sorted with canceled ctx: %v", err)
	}
	if _, err := s.Random(canceled, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Random with canceled ctx: %v", err)
	}
	if _, err := s.BatchRandom(canceled, []int{0}, []int{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchRandom with canceled ctx: %v", err)
	}
	ctx := context.Background()
	if _, _, err := s.Sorted(ctx, 0, 20); err == nil {
		t.Fatal("rank out of range: want error")
	}
	if _, _, err := s.Sorted(ctx, 2, 0); err == nil {
		t.Fatal("pred out of range: want error")
	}
	if _, err := s.Random(ctx, 0, -1); err == nil {
		t.Fatal("obj out of range: want error")
	}
}

// TestStoreCacheStats checks the block cache actually amortizes: a full
// in-order scan of one predicate reads each block from disk once.
func TestStoreCacheStats(t *testing.T) {
	_, s := buildSmall(t, data.Uniform, 64, 2, 9, WriterOptions{BlockEntries: 16})
	ctx := context.Background()
	for rank := 0; rank < 64; rank++ {
		if _, _, err := s.Sorted(ctx, 0, rank); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.BlockReads != 4 { // 64 entries / 16 per block
		t.Fatalf("BlockReads = %d, want 4", st.BlockReads)
	}
	if st.BlockHits != 60 {
		t.Fatalf("BlockHits = %d, want 60", st.BlockHits)
	}
	s.DropCaches()
	if _, _, err := s.Sorted(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BlockReads; got != 5 {
		t.Fatalf("BlockReads after DropCaches = %d, want 5", got)
	}
}

// TestStoreSeekScore checks the fence index gives a sound lower bound:
// every rank before SeekScore(pred, v) scores >= v.
func TestStoreSeekScore(t *testing.T) {
	ds, s := buildSmall(t, data.Uniform, 100, 2, 21, WriterOptions{BlockEntries: 16})
	for _, v := range []float64{0.0, 0.25, 0.5, 0.9, 1.1} {
		rank := s.SeekScore(0, v)
		if rank%16 != 0 && rank != 100 {
			t.Fatalf("SeekScore(%v) = %d, not a block boundary", v, rank)
		}
		for r := 0; r < rank; r += 16 { // fences only bound block starts
			if _, score := ds.SortedAt(0, r); score < v {
				t.Fatalf("SeekScore(%v) = %d, but rank %d scores %v", v, rank, r, score)
			}
		}
	}
}

// TestStoreRowAndSample checks the row reader and the sample builder
// reproduce stored scores exactly.
func TestStoreRowAndSample(t *testing.T) {
	ds, s := buildSmall(t, data.Correlated, 50, 3, 13, WriterOptions{BlockEntries: 16})
	row, err := s.Row(17, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if row[i] != ds.Score(17, i) {
			t.Fatalf("Row(17)[%d] = %v, want %v", i, row[i], ds.Score(17, i))
		}
	}
	sample, err := s.SampleDataset(10, 99)
	if err != nil {
		t.Fatal(err)
	}
	if sample.N() != 10 || sample.M() != 3 {
		t.Fatalf("sample dims %dx%d", sample.N(), sample.M())
	}
	// Every sampled row must be some real object's row.
	direct, err := data.Sample(ds, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10; u++ {
		for i := 0; i < 3; i++ {
			if sample.Score(u, i) != direct.Score(u, i) {
				t.Fatalf("sample[%d][%d] = %v, data.Sample has %v", u, i, sample.Score(u, i), direct.Score(u, i))
			}
		}
	}
}

// TestStoreCrashConsistency is the recover-or-refuse-loudly contract: a
// store directory damaged in any of the ways a crash can produce —
// missing manifest (died mid-build), truncated segment or scores file
// (torn write after manifest... can't happen with manifest-last ordering,
// but disks lie), corrupted fence order, a flipped byte anywhere the
// checksums cover, a manifest whose n disagrees with its own file sizes —
// must fail Open with ErrCorrupt, never serve garbage. A row with maxAlloc
// also bounds what Open allocates before refusing.
func TestStoreCrashConsistency(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		if err := WriteStream(dir, data.Uniform, 60, 2, 17, WriterOptions{BlockEntries: 16}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	damage := []struct {
		name     string
		hurt     func(t *testing.T, dir string)
		maxAlloc uint64
	}{
		{name: "flipped-score-byte", hurt: func(t *testing.T, dir string) {
			// A mantissa byte of object 7's first score: still a valid score,
			// just the wrong one.
			flipByte(t, scoresPath(dir), scoresHeaderSize+7*2*8+3)
		}},
		{name: "flipped-entry-byte", hurt: func(t *testing.T, dir string) {
			// The object id of rank 5, inside block 0: the fences still descend.
			flipByte(t, segmentPath(dir, 1), segmentHeaderSize+5*entrySize)
		}},
		{name: "n-disagrees-with-sizes", maxAlloc: 1 << 20, hurt: func(t *testing.T, dir string) {
			// n = 2^28 in the manifest and in every header, with the file sizes
			// left as they are: only the sizes give the lie away, and the fence
			// section n implies would take 128 MiB.
			const n = 1 << 28
			raw, err := os.ReadFile(manifestPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			var man Manifest
			if err := json.Unmarshal(raw, &man); err != nil {
				t.Fatal(err)
			}
			man.N = n
			if err := writeManifest(dir, man); err != nil {
				t.Fatal(err)
			}
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:], n)
			writeAt(t, scoresPath(dir), magicSize, hdr[:4])
			binary.LittleEndian.PutUint64(hdr[:], n)
			for i := 0; i < man.M; i++ {
				writeAt(t, segmentPath(dir, i), magicSize+8, hdr[:])
			}
		}},
		{name: "missing-manifest", hurt: func(t *testing.T, dir string) {
			os.Remove(manifestPath(dir))
		}},
		{name: "truncated-segment", hurt: func(t *testing.T, dir string) {
			truncateTail(t, segmentPath(dir, 1), 5)
		}},
		{name: "truncated-scores", hurt: func(t *testing.T, dir string) {
			truncateTail(t, scoresPath(dir), 1)
		}},
		{name: "missing-segment", hurt: func(t *testing.T, dir string) {
			os.Remove(segmentPath(dir, 0))
		}},
		{name: "garbage-manifest", hurt: func(t *testing.T, dir string) {
			if err := os.WriteFile(manifestPath(dir), []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "fence-disorder", hurt: func(t *testing.T, dir string) {
			// Overwrite the first fence (block 0 max score) with -Inf: a
			// later fence is then necessarily larger, breaking descent.
			buf := make([]byte, 8)
			buf[7] = 0xFF // sign+exponent bits set: a huge negative float
			writeAt(t, segmentPath(dir, 0), segmentHeaderSize+int64(60)*entrySize, buf)
		}},
		{name: "wrong-format-version", hurt: func(t *testing.T, dir string) {
			raw, err := os.ReadFile(manifestPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			out := []byte(`{"format_version": 999` + string(raw[len(`{"format_version": 1`):]))
			if err := os.WriteFile(manifestPath(dir), out, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := build(t)
			d.hurt(t, dir)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := Open(dir, Options{})
			runtime.ReadMemStats(&after)
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a damaged store")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; d.maxAlloc > 0 && alloc >= d.maxAlloc {
				t.Fatalf("Open allocated %d bytes before refusing, bound %d", alloc, d.maxAlloc)
			}
		})
	}
	// And an undamaged store still opens after all that.
	dir := build(t)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open undamaged: %v", err)
	}
	s.Close()
}

// TestWriterContract checks Append validation and abort-on-error.
func TestWriterContract(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, "t", 3, 2, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]float64{0.1}); err == nil {
		t.Fatal("wrong row width: want error")
	}
	if err := w.Append([]float64{0.1, math.NaN()}); err == nil {
		t.Fatal("NaN score: want error")
	}
	if err := w.Append([]float64{0.1, 1.5}); err == nil {
		t.Fatal("score > 1: want error")
	}
	if err := w.Append([]float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	// Finishing short of n must fail and leave no manifest.
	if err := w.Finish(); err == nil {
		t.Fatal("short Finish: want error")
	}
	if _, err := os.Stat(manifestPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("short build left a manifest: %v", err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open after aborted build: %v", err)
	}
}

// TestMeasureSmoke checks measurement returns positive quantized costs
// and a stable fingerprint key.
func TestMeasureSmoke(t *testing.T) {
	_, s := buildSmall(t, data.Uniform, 200, 2, 31, WriterOptions{BlockEntries: 32})
	ctx := context.Background()
	cal, err := Measure(ctx, s, MeasureOptions{Probes: 64, Batches: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cal.SortedMS <= 0 || cal.RandomMS <= 0 {
		t.Fatalf("non-positive calibration: %+v", cal)
	}
	if cal.Mode != "warm" {
		t.Fatalf("mode = %q", cal.Mode)
	}
	if cal.Key() == "" || cal.Key() != cal.Key() {
		t.Fatal("unstable key")
	}
	cold, err := Measure(ctx, s, MeasureOptions{Probes: 64, Batches: 3, Seed: 1, Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Mode != "cold" {
		t.Fatalf("cold mode = %q", cold.Mode)
	}
}

// TestQuantizeUnits pins the two-significant-figure quantizer.
func TestQuantizeUnits(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.0001234, 0.00012},
		{0.0001299, 0.00013},
		{1.26, 1.3},
		{987, 990},
		{0, 1e-6},
		{-5, 1e-6},
		{math.NaN(), 1e-6},
		{math.Inf(1), 1e-6},
	}
	for _, c := range cases {
		if got := QuantizeUnits(c.in); math.Abs(got-c.want) > c.want*1e-9 {
			t.Fatalf("QuantizeUnits(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Quantized values print as clean two-digit decimals: they are spliced
	// verbatim into calibration keys and plan-cache fingerprints.
	if s := fmt.Sprintf("%g", QuantizeUnits(0.000407)); s != "0.00041" {
		t.Fatalf("quantized value prints as %q, want 0.00041", s)
	}
}

// writeAt overwrites path's bytes at off with b.
func writeAt(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// flipByte inverts the low bit of path's byte at off.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	writeAt(t, path, off, []byte{raw[off] ^ 1})
}

func truncateTail(t *testing.T, path string, bytes int64) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-bytes); err != nil {
		t.Fatal(err)
	}
}
