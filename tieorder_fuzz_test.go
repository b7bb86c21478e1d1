package topk

// FuzzTieOrder holds Framework NC to the oracle's ids on small tables
// whose scores come from a three- or four-value set, so nearly every
// comparison a run makes is a tie: under random depths H, scoring function
// and k, and on a random Figure-2 cell, the answer must name exactly
// TopKOracle's objects in its order — equal scores higher id first. The
// nightly workflow runs the long campaign; its seed corpus runs with the
// tests.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
)

func FuzzTieOrder(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(3), uint8(3), uint8(0), uint8(5), []byte{128, 128, 128})
	f.Add(int64(2), uint8(60), uint8(2), uint8(4), uint8(1), uint8(10), []byte{0, 255})
	f.Add(int64(3), uint8(12), uint8(3), uint8(3), uint8(2), uint8(1), []byte{255, 0, 60})
	f.Add(int64(4), uint8(45), uint8(1), uint8(4), uint8(3), uint8(45), []byte{10})
	f.Add(int64(5), uint8(50), uint8(3), uint8(3), uint8(4), uint8(7), []byte{200, 30, 90})
	f.Add(int64(6), uint8(25), uint8(2), uint8(3), uint8(5), uint8(25), []byte{0, 0})

	f.Fuzz(func(t *testing.T, seed int64, nb, mb, values, fb, kb uint8, depths []byte) {
		n, m := 1+int(nb)%64, 1+int(mb)%3
		k := 1 + int(kb)%n
		// Three or four scores on an even grid over [0, 1], 1.0 always
		// among them: the top of every list ties, as zipf and correlated
		// data's do.
		levels := 2 + int(values)%2
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, n)
		for u := range rows {
			rows[u] = make([]float64, m)
			for i := range rows[u] {
				rows[u][i] = float64(rng.Intn(levels+1)) / float64(levels)
			}
		}
		ds, err := data.New("tied", rows)
		if err != nil {
			t.Fatal(err)
		}
		fns := []ScoreFunc{Min(), Avg(), Max(), Product(), Median()}
		fn := fns[int(fb)%len(fns)]
		h := make([]float64, m)
		for i := range h {
			if i < len(depths) {
				h[i] = float64(depths[i]) / 255
			}
		}
		cells := figure2Cells(m, 5)
		cell := cells[int(fb)/len(fns)%len(cells)]
		eng, err := NewEngine(DataBackend(ds), cell.scn)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := eng.Run(Query{F: fn, K: k}, WithNC(h, nil))
		if err != nil {
			t.Fatalf("%s, %s, k=%d, H=%v: %v", cell.name, fn.Name(), k, h, err)
		}
		var got, want []int
		for _, it := range ans.Items {
			got = append(got, it.Obj)
		}
		for _, it := range TopKOracle(ds, fn, k) {
			want = append(want, it.Obj)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s, %s, k=%d, H=%v: ids %v, oracle %v", cell.name, fn.Name(), k, h, got, want)
		}
	})
}
