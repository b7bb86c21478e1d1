package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/data"
)

// materializedPartition is the partition every shard node once built: the
// whole dataset in memory, each object appended to its owner's slice in
// ascending id order, each slice's rows copied out of the dataset. It is
// the oracle Slice answers to.
func materializedPartition(t *testing.T, ds *data.Dataset, shards int) []*ShardData {
	t.Helper()
	ring, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	n, m := ds.N(), ds.M()
	owned := make([][]int, shards)
	for u := 0; u < n; u++ {
		owned[ring.Owner(u)] = append(owned[ring.Owner(u)], u)
	}
	out := make([]*ShardData, shards)
	for s := range out {
		sd := &ShardData{Index: s, Global: owned[s], globalN: n, m: m}
		if len(owned[s]) > 0 {
			rows := make([][]float64, len(owned[s]))
			for local, global := range owned[s] {
				rows[local] = ds.Scores(global)
			}
			if sd.Local, err = data.New(fmt.Sprintf("%s/shard%d-of-%d", ds.Name(), s, shards), rows); err != nil {
				t.Fatal(err)
			}
		}
		out[s] = sd
	}
	return out
}

// sameShard reports the first way got differs from want: ids, id map,
// scores, sorted lists or name.
func sameShard(got, want *ShardData) error {
	switch {
	case got.Index != want.Index:
		return fmt.Errorf("Index %d, want %d", got.Index, want.Index)
	case !reflect.DeepEqual(got.Global, want.Global):
		return fmt.Errorf("Global %v, want %v", got.Global, want.Global)
	case got.LocalN() != want.LocalN() || got.GlobalN() != want.GlobalN() || got.M() != want.M():
		return fmt.Errorf("dims %d/%d×%d, want %d/%d×%d", got.LocalN(), got.GlobalN(), got.M(), want.LocalN(), want.GlobalN(), want.M())
	case (got.Local == nil) != (want.Local == nil):
		return fmt.Errorf("Local %v, want %v", got.Local, want.Local)
	}
	// The n-sized id map a shard once held answers ToLocal independently of
	// the binary search over Global that Slice's shards use.
	toLocal := make([]int, want.GlobalN()+2)
	for u := range toLocal {
		toLocal[u] = -1
	}
	for local, global := range want.Global {
		toLocal[global+1] = local
	}
	for u := -1; u <= want.GlobalN(); u++ {
		if got.ToLocal(u) != toLocal[u+1] {
			return fmt.Errorf("ToLocal(%d) = %d, want %d", u, got.ToLocal(u), toLocal[u+1])
		}
	}
	if want.Local == nil {
		return nil
	}
	if got.Local.Name() != want.Local.Name() {
		return fmt.Errorf("name %q, want %q", got.Local.Name(), want.Local.Name())
	}
	for p := 0; p < want.M(); p++ {
		for r := 0; r < want.LocalN(); r++ {
			if got.Local.Score(r, p) != want.Local.Score(r, p) {
				return fmt.Errorf("local %d p%d: score %v, want %v", r, p, got.Local.Score(r, p), want.Local.Score(r, p))
			}
			gotObj, gotScore := got.Local.SortedAt(p, r)
			wantObj, wantScore := want.Local.SortedAt(p, r)
			if gotObj != wantObj || gotScore != wantScore {
				return fmt.Errorf("p%d rank %d: (%d, %v), want (%d, %v)", p, r, gotObj, gotScore, wantObj, wantScore)
			}
		}
	}
	return nil
}

// TestSliceMatchesMaterializedPartition: a shard sliced from the generator's
// stream — what a topkd -shard -dist node builds — and every shard of
// Partition over the materialized dataset equal the materialize-then-
// partition oracle in ids, id map, scores, sorted lists and name, for every
// distribution, 1–5 shards and datasets smaller than, near and far above
// the shard count. A shard that owns nothing has no Local dataset and draws
// no row.
func TestSliceMatchesMaterializedPartition(t *testing.T) {
	const m, seed = 3, 5
	for _, dist := range []data.Distribution{data.Uniform, data.Gaussian, data.Skewed, data.Correlated, data.AntiCorrelated, data.Zipf} {
		for _, n := range []int{1, 2, 7, 1000} {
			ds, err := data.Generate(dist, n, m, seed)
			if err != nil {
				t.Fatal(err)
			}
			for shards := 1; shards <= 5; shards++ {
				want := materializedPartition(t, ds, shards)
				parts, err := Partition(ds, shards)
				if err != nil {
					t.Fatal(err)
				}
				ring, err := NewRing(shards)
				if err != nil {
					t.Fatal(err)
				}
				for s := range want {
					draws := 0
					streamed, err := Slice(ring, s, data.GeneratedName(dist, n, m, seed), n, m,
						func(emit func(int, []float64) error) error {
							draws++
							return data.Stream(dist, n, m, seed, emit)
						})
					if err != nil {
						t.Fatal(err)
					}
					if err := sameShard(streamed, want[s]); err != nil {
						t.Errorf("%v n=%d shard %d of %d, sliced from the stream: %v", dist, n, s, shards, err)
					}
					if err := sameShard(parts[s], want[s]); err != nil {
						t.Errorf("%v n=%d shard %d of %d, from Partition: %v", dist, n, s, shards, err)
					}
					if want[s].LocalN() == 0 && draws != 0 {
						t.Errorf("%v n=%d shard %d of %d owns nothing but drew the rows %d times", dist, n, s, shards, draws)
					}
				}
			}
		}
	}
}

// TestSliceRefusesBadRows: Slice refuses a shard outside the ring, an empty
// shape, and a row source that breaks the Rows contract — rows out of
// order or out of range, a row of the wrong width, a missing row — and
// passes a row source's own error through.
func TestSliceRefusesBadRows(t *testing.T) {
	ring, err := NewRing(2)
	if err != nil {
		t.Fatal(err)
	}
	const n, m = 50, 2
	row := make([]float64, m)
	emitAll := func(order []int, width int) Rows {
		return func(emit func(int, []float64) error) error {
			for _, u := range order {
				if err := emit(u, row[:width]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	ascending := make([]int, n)
	for u := range ascending {
		ascending[u] = u
	}
	if _, err := Slice(ring, 0, "ok", n, m, emitAll(ascending, m)); err != nil {
		t.Fatalf("a well-formed row source refused: %v", err)
	}
	swapped := append([]int(nil), ascending...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	errSource := errors.New("source failed")
	for _, tc := range []struct {
		name string
		idx  int
		n, m int
		rows Rows
	}{
		{"shard outside the ring", 2, n, m, emitAll(ascending, m)},
		{"negative shard", -1, n, m, emitAll(ascending, m)},
		{"no objects", 0, 0, m, emitAll(nil, m)},
		{"no predicates", 0, n, 0, emitAll(ascending, 0)},
		{"rows out of order", 0, n, m, emitAll(swapped, m)},
		{"a row past n", 0, n, m, emitAll(append(ascending[:n:n], n), m)},
		{"a narrow row", 0, n, m, emitAll(ascending, m-1)},
		{"a missing row", 0, n, m, emitAll(ascending[:n/2], m)},
		{"a failing source", 0, n, m, func(func(int, []float64) error) error { return errSource }},
	} {
		if _, err := Slice(ring, tc.idx, "bad", tc.n, tc.m, tc.rows); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Slice(ring, 0, "bad", n, m, func(func(int, []float64) error) error { return errSource }); !errors.Is(err, errSource) {
		t.Errorf("a row source's error came back as %v", err)
	}
}

// BenchmarkSlice times building one of three shards of zipf 10⁵ × 3 from
// the generator's stream, as a topkd -shard node does: the ring lookups
// that size and list the slice, the draw, and the sort of its lists.
func BenchmarkSlice(b *testing.B) {
	const n, m, seed = 100_000, 3, 1
	ring, err := NewRing(3)
	if err != nil {
		b.Fatal(err)
	}
	rows := func(emit func(int, []float64) error) error { return data.Stream(data.Zipf, n, m, seed, emit) }
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Slice(ring, 0, data.GeneratedName(data.Zipf, n, m, seed), n, m, rows); err != nil {
			b.Fatal(err)
		}
	}
}
