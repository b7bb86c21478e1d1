package algo

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/score"
)

// procedural is a backend over n objects that holds none of them: list i
// is the permutation rank -> (rank*stride[i] + i) mod n, scored 1 - rank/n,
// and a probe inverts it. n must share no factor with a stride.
type procedural struct {
	n       int
	stride  []int // per predicate
	inverse []int // stride[i]*inverse[i] = 1 mod n
}

func newProcedural(n int) *procedural {
	b := &procedural{n: n, stride: []int{7919, 104729, 1299709}}
	for _, s := range b.stride {
		inv := 1
		for inv*s%n != 1 {
			inv += 2 // n is a power of ten here, so an inverse is odd
		}
		b.inverse = append(b.inverse, inv)
	}
	return b
}

func (b *procedural) N() int { return b.n }
func (b *procedural) M() int { return len(b.stride) }

func (b *procedural) Sorted(_ context.Context, pred, rank int) (int, float64, error) {
	return (rank*b.stride[pred] + pred) % b.n, 1 - float64(rank)/float64(b.n), nil
}

func (b *procedural) Random(_ context.Context, pred, obj int) (float64, error) {
	rank := (obj - pred + b.n) % b.n * b.inverse[pred] % b.n
	return 1 - float64(rank)/float64(b.n), nil
}

// heapAfterGC returns the live heap once everything unreachable is gone.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestQueryStateFootprint holds the pooled query state — session, table,
// queue — to its memory contract: 4 bytes per object of the universe for
// each of its two object indices, and everything else in proportion to the
// objects the query touched. A query over a million objects that touches
// a few percent of them keeps ~12 MB, not the ~45 MB of arrays dense in n.
func TestQueryStateFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates two 4 MB indices")
	}
	const n = 1_000_000
	b := newProcedural(n)
	scn := access.Uniform(b.M(), 1, 1)

	before := heapAfterGC()
	sess, err := access.NewSession(b, scn)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	p, err := NewProblem(score.Avg(), 10, sess)
	if err != nil {
		t.Fatal(err)
	}
	nc := &NC{Sel: MustNewSRG([]float64{0.999, 0.999, 0.999}, nil)}
	res, err := nc.RunScratch(p, sc)
	if err != nil {
		t.Fatal(err)
	}
	retained := int64(heapAfterGC()) - int64(before)
	touched := sess.SeenCount()
	runtime.KeepAlive(sc)
	runtime.KeepAlive(res)

	if touched < 5_000 || touched > 50_000 {
		t.Fatalf("the run touched %d objects; the gate is calibrated for a few times 10^4", touched)
	}
	// Per touched object: a table slot (8m+m+5 bytes), a session slot (m+1),
	// a queue entry and mark (17), two index entries (8) — ~70 bytes at
	// m=3, doubled for the slack growth by doubling leaves.
	const perTouched = 160
	budget := int64(8*n + perTouched*touched)
	t.Logf("n=%d touched=%d accesses=%d retained=%.2f MB budget=%.2f MB",
		n, touched, res.Ledger.TotalAccesses(), float64(retained)/1e6, float64(budget)/1e6)
	if retained > budget {
		t.Errorf("pooled query state retains %d bytes after touching %d of %d objects, budget 8n + %d*touched = %d",
			retained, touched, n, perTouched, budget)
	}

	// Rebuilding a state sync.Pool dropped costs a handful of allocations,
	// whatever n is: two indices and one set of slot arrays.
	small := newProcedural(1000)
	fresh := testing.AllocsPerRun(10, func() {
		s, err := access.NewSession(small, scn)
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		if _, _, err := sc.Prepare(s.N(), s.M(), score.Avg(), true); err != nil {
			t.Fatal(err)
		}
	})
	if fresh > 22 {
		t.Errorf("a fresh query state costs %.0f allocations, want no more than the 22 the dense session, table and queue cost", fresh)
	}
}

// BenchmarkStateReset times one turn of a pooled query state — recycle it,
// then touch the same number of objects — at two universe sizes. The reset
// is O(m): what the last query touched is orphaned by emptying the
// indices, so n enters only through the cache misses of the touches.
func BenchmarkStateReset(b *testing.B) {
	const touched = 512
	for _, n := range []int{1_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			back := newProcedural(n)
			sess, err := access.NewSession(back, access.Uniform(back.M(), 1, 1))
			if err != nil {
				b.Fatal(err)
			}
			var sc Scratch
			for i := 0; i < b.N; i++ {
				if err := sess.Reset(); err != nil {
					b.Fatal(err)
				}
				tab, q, err := sc.Prepare(n, back.M(), score.Avg(), true)
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < touched; r++ {
					obj, s, err := sess.SortedNext(0)
					if err != nil {
						b.Fatal(err)
					}
					tab.ObserveSorted(0, obj, s)
					q.Add(obj)
				}
			}
		})
	}
}
