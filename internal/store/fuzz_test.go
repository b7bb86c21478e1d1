package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/data"
)

// storeView is everything a store serves: its shape, every sorted rank and
// every probe of every predicate.
type storeView struct {
	N, M   int
	Sorted [][]entry
	Random [][]float64
}

type entry struct {
	Obj   int
	Score float64
}

func viewOf(t testing.TB, s *Store) storeView {
	t.Helper()
	ctx := context.Background()
	v := storeView{N: s.N(), M: s.M(), Sorted: make([][]entry, s.M()), Random: make([][]float64, s.M())}
	for pred := 0; pred < s.M(); pred++ {
		for rank := 0; rank < s.N(); rank++ {
			obj, score, err := s.Sorted(ctx, pred, rank)
			if err != nil {
				t.Fatalf("Sorted(%d, %d): %v", pred, rank, err)
			}
			v.Sorted[pred] = append(v.Sorted[pred], entry{obj, score})
		}
		for obj := 0; obj < s.N(); obj++ {
			score, err := s.Random(ctx, pred, obj)
			if err != nil {
				t.Fatalf("Random(%d, %d): %v", pred, obj, err)
			}
			v.Random[pred] = append(v.Random[pred], score)
		}
	}
	return v
}

// FuzzStoreOpen sets one byte of one file of a 60 x 2 store at 16 entries
// per block to a new value — the manifest included. Open must either refuse
// with ErrCorrupt or open a store that serves exactly what the unmutated
// one does, every sorted rank and every probe of every predicate; it must
// never panic.
func FuzzStoreOpen(f *testing.F) {
	seed := f.TempDir()
	if err := WriteStream(seed, data.Uniform, 60, 2, 17, WriterOptions{BlockEntries: 16}); err != nil {
		f.Fatal(err)
	}
	files := []string{ManifestName, "scores.dat", "pred_000.seg", "pred_001.seg"}
	orig := make([][]byte, len(files))
	for i, name := range files {
		raw, err := os.ReadFile(filepath.Join(seed, name))
		if err != nil {
			f.Fatal(err)
		}
		orig[i] = raw
	}
	s, err := Open(seed, Options{})
	if err != nil {
		f.Fatal(err)
	}
	want := viewOf(f, s)
	s.Close()
	// Seeds: the manifest's n, block size, a checksum and the format
	// version; its trailing newline turned into a space (still the same
	// manifest); and every data file's header, middle and last byte.
	man := orig[0]
	for _, field := range []string{`"n": `, `"block_entries": `, `"scores_crc32": `, `"format_version": `} {
		if at := bytes.Index(man, []byte(field)); at >= 0 {
			f.Add(uint8(0), uint32(at+len(field)), byte('9'))
		}
	}
	f.Add(uint8(0), uint32(len(man)-1), byte(' '))
	for i := 1; i < len(files); i++ {
		n := uint32(len(orig[i]))
		f.Add(uint8(i), uint32(magicSize), byte(0xFF))
		f.Add(uint8(i), n/2, byte(0))
		f.Add(uint8(i), n-1, byte(0x7F))
	}
	f.Fuzz(func(t *testing.T, file uint8, off uint32, val byte) {
		i := int(file) % len(files)
		dir := t.TempDir()
		for j, name := range files {
			raw := orig[j]
			if j == i {
				raw = bytes.Clone(raw)
				raw[int(off)%len(raw)] = val
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open refused without ErrCorrupt: %v", err)
			}
			return
		}
		defer got.Close()
		if v := viewOf(t, got); !reflect.DeepEqual(v, want) {
			t.Fatalf("a store mutated at %s[%d] = %#x opened and serves other scores", files[i], int(off)%len(orig[i]), val)
		}
	})
}
