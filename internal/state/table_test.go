package state

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/kit"
	"repro/internal/score"
)

// fig3 reproduces the paper's Dataset 1 (Figure 3) score state walkthrough
// of Example 7: after sa1, sa1, sa2, ra1(u1) the state is
//
//	u1: p1=.6  p2<=.9   F-bar=.6   (F = min)
//	u2: p1=.65 p2<=.9   F-bar=.65
//	u3: p1=.7  p2=.9    (u3 seen at rank 0 of p1)
//
// We map u1,u2,u3 to OIDs 0,1,2 as in the access tests.
func fig3() *data.Dataset {
	return datatest.MustNew("fig3", [][]float64{
		{0.6, 0.8},
		{0.65, 0.8},
		{0.7, 0.9},
	})
}

func TestTableExample7State(t *testing.T) {
	ds := fig3()
	tab := MustNewTable(3, 2, score.Min())

	// P = {sa1, sa1, sa2, ra1(u1)} in the paper's numbering; here the two
	// sorted accesses on p1 hit u3(.7) then u2(.65), sa2 hits u3(.9), and
	// we probe p1 of object 0 (paper's u1) to get .6.
	obj, s := ds.SortedAt(0, 0)
	tab.ObserveSorted(0, obj, s) // u3, .7
	obj, s = ds.SortedAt(0, 1)
	tab.ObserveSorted(0, obj, s) // u2, .65
	obj, s = ds.SortedAt(1, 0)
	tab.ObserveSorted(1, obj, s) // u3, .9
	tab.ObserveRandom(0, 0, ds.Score(0, 0))

	if got := tab.LastSeen(0); got != 0.65 {
		t.Errorf("ell_1 = %g, want 0.65", got)
	}
	if got := tab.LastSeen(1); got != 0.9 {
		t.Errorf("ell_2 = %g, want 0.9", got)
	}
	// u3 (OID 2) complete with exact min(.7,.9) = .7.
	if !tab.Complete(2) {
		t.Fatal("u3 should be complete")
	}
	if ex, ok := tab.Exact(2); !ok || math.Abs(ex-0.7) > 1e-12 {
		t.Errorf("F(u3) = %g, want 0.7", ex)
	}
	// u2 (OID 1): p1 known .65, p2 bounded by .9 -> F-bar = .65.
	if got := tab.Upper(1); math.Abs(got-0.65) > 1e-12 {
		t.Errorf("F-bar(u2) = %g, want 0.65", got)
	}
	// u1 (OID 0): p1 probed .6 -> F-bar = min(.6,.9) = .6.
	if got := tab.Upper(0); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("F-bar(u1) = %g, want 0.6", got)
	}
	// Lower bounds: unknowns -> 0.
	if got := tab.Lower(1); got != 0 {
		t.Errorf("F-floor(u2) = %g, want 0 under min", got)
	}
	if got := tab.Lower(2); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("F-floor(u3) = %g, want 0.7 (complete)", got)
	}
	// Unseen bound: F(ell) = min(.65,.9) = .65.
	if got := tab.UnseenUpper(); math.Abs(got-0.65) > 1e-12 {
		t.Errorf("unseen upper = %g, want 0.65", got)
	}
	// Seen bookkeeping: u2,u3 seen via sorted, u1 (0) only probed.
	if tab.Seen(0) || !tab.Seen(1) || !tab.Seen(2) {
		t.Error("seen flags wrong")
	}
	if tab.SeenCount() != 2 || tab.AllSeen() {
		t.Errorf("seen count = %d", tab.SeenCount())
	}
	if tab.Depth(0) != 2 || tab.Depth(1) != 1 {
		t.Errorf("depths = %d,%d", tab.Depth(0), tab.Depth(1))
	}
	// Unknown predicates of u1 (OID 0): p2 only.
	if got := tab.UnknownPreds(0, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("unknown preds of u1 = %v", got)
	}
	if got := tab.UnknownPreds(2, nil); len(got) != 0 {
		t.Errorf("unknown preds of u3 = %v", got)
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(0, 2, score.Min()); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewTable(2, 0, score.Min()); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := NewTable(2, 3, score.Weighted(1, 2)); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestValuePanicsWhenUnknown(t *testing.T) {
	tab := MustNewTable(2, 2, score.Avg())
	defer func() {
		if recover() == nil {
			t.Error("Value of unknown score should panic")
		}
	}()
	tab.Value(0, 0)
}

func TestExactRequiresComplete(t *testing.T) {
	tab := MustNewTable(1, 2, score.Avg())
	if _, ok := tab.Exact(0); ok {
		t.Error("incomplete object must not report exact score")
	}
	tab.ObserveRandom(0, 0, 0.5)
	tab.ObserveRandom(1, 0, 0.7)
	if ex, ok := tab.Exact(0); !ok || math.Abs(ex-0.6) > 1e-12 {
		t.Errorf("exact = %g,%v", ex, ok)
	}
}

// TestBoundInvariantsProperty drives a table with a random legal access
// sequence over a random dataset and checks, after every access, that
// F-floor(u) <= F(u) <= F-bar(u), that uppers never increase, and that
// lowers never decrease.
func TestBoundInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	funcs := []score.Func{score.Min(), score.Avg(), score.Max(), score.Product()}
	prop := func(seed int64, fIdx uint8) bool {
		n, m := 12, 3
		ds := datatest.MustGenerate(data.Uniform, n, m, seed)
		f := funcs[int(fIdx)%len(funcs)]
		tab := MustNewTable(n, m, f)
		local := rand.New(rand.NewSource(seed ^ 0x5eed))

		prevUp := make([]float64, n)
		prevLo := make([]float64, n)
		for u := 0; u < n; u++ {
			prevUp[u] = tab.Upper(u)
			prevLo[u] = tab.Lower(u)
		}
		cursor := make([]int, m)
		for step := 0; step < 40; step++ {
			if local.Intn(2) == 0 {
				i := local.Intn(m)
				if cursor[i] < n {
					obj, s := ds.SortedAt(i, cursor[i])
					cursor[i]++
					tab.ObserveSorted(i, obj, s)
				}
			} else {
				u, i := local.Intn(n), local.Intn(m)
				tab.ObserveRandom(i, u, ds.Score(u, i))
			}
			for u := 0; u < n; u++ {
				up, lo := tab.Upper(u), tab.Lower(u)
				truth := f.Eval(ds.Scores(u))
				if lo > truth+1e-12 || truth > up+1e-12 {
					return false
				}
				if up > prevUp[u]+1e-12 || lo < prevLo[u]-1e-12 {
					return false
				}
				prevUp[u], prevLo[u] = up, lo
			}
			// Every truly unseen object is bounded by the unseen upper.
			uu := tab.UnseenUpper()
			for u := 0; u < n; u++ {
				if !tab.Seen(u) {
					// Its p_i from sorted lists are unknown, so Upper(u)
					// uses ell everywhere except probed predicates.
					if tab.KnownCount(u) == 0 && math.Abs(tab.Upper(u)-uu) > 1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// denseTable is the table as it stood before the object index: every
// per-object fact in an array dense in n, cleared by Reset. It is kept as
// the reference the sparse Table is driven against.
type denseTable struct {
	f        score.Func
	n, m     int
	val      []float64
	known    []bool
	nknown   []int
	lastSeen []float64
	depth    []int
	seen     []bool
	nseen    int
	buf      []float64
}

func newDenseTable(n, m int, f score.Func) *denseTable {
	t := &denseTable{
		f: f, n: n, m: m,
		val:      make([]float64, n*m),
		known:    make([]bool, n*m),
		nknown:   make([]int, n),
		lastSeen: make([]float64, m),
		depth:    make([]int, m),
		seen:     make([]bool, n),
		buf:      make([]float64, m),
	}
	for i := range t.lastSeen {
		t.lastSeen[i] = 1
	}
	return t
}

func (t *denseTable) Reset(f score.Func) {
	t.f = f
	clear(t.known)
	clear(t.nknown)
	clear(t.depth)
	clear(t.seen)
	t.nseen = 0
	for i := range t.lastSeen {
		t.lastSeen[i] = 1
	}
}

func (t *denseTable) setKnown(i, u int, s float64) {
	idx := u*t.m + i
	if !t.known[idx] {
		t.known[idx] = true
		t.nknown[u]++
	}
	t.val[idx] = s
}

func (t *denseTable) ObserveSorted(i, u int, s float64) {
	t.setKnown(i, u, s)
	t.lastSeen[i] = s
	t.depth[i]++
	if !t.seen[u] {
		t.seen[u] = true
		t.nseen++
	}
}

func (t *denseTable) ObserveRandom(i, u int, s float64) { t.setKnown(i, u, s) }

func (t *denseTable) bound(u int, unknown func(i int) float64) float64 {
	for i := 0; i < t.m; i++ {
		if t.known[u*t.m+i] {
			t.buf[i] = t.val[u*t.m+i]
		} else {
			t.buf[i] = unknown(i)
		}
	}
	return t.f.Eval(t.buf)
}

func (t *denseTable) Upper(u int) float64 {
	return t.bound(u, func(i int) float64 { return t.lastSeen[i] })
}

func (t *denseTable) Lower(u int) float64 {
	return t.bound(u, func(int) float64 { return 0 })
}

func (t *denseTable) UnseenUpper() float64 {
	copy(t.buf, t.lastSeen)
	return t.f.Eval(t.buf)
}

func (t *denseTable) Exact(u int) (float64, bool) {
	if t.nknown[u] != t.m {
		return 0, false
	}
	return t.Lower(u), true
}

func (t *denseTable) UnknownPreds(u int, dst []int) []int {
	for i := 0; i < t.m; i++ {
		if !t.known[u*t.m+i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// denseQueue is the reference candidate queue: membership dense in n and
// the head found by scanning every member's current bound, which is what
// lazy revalidation must agree with.
type denseQueue struct {
	t       *denseTable
	in      []bool
	retired []bool
	unseen  bool
}

func newDenseQueue(t *denseTable, nwg bool) *denseQueue {
	q := &denseQueue{t: t, in: make([]bool, t.n), retired: make([]bool, t.n), unseen: nwg}
	if !nwg {
		for u := range q.in {
			q.in[u] = true
		}
	}
	return q
}

func (q *denseQueue) Add(u int) {
	if !q.retired[u] {
		q.in[u] = true
	}
}

// Len counts the real objects enqueued.
func (q *denseQueue) Len() int {
	n := 0
	for _, in := range q.in {
		if in {
			n++
		}
	}
	return n
}

// Peek returns the member with the highest current bound. Once every
// object has been seen the unseen entry no longer competes; when the real
// queue gets round to dropping it is its own business.
func (q *denseQueue) Peek() (Entry, bool) {
	var best Entry
	found := false
	consider := func(e Entry) {
		if !found || e.Before(best) {
			best, found = e, true
		}
	}
	for u, in := range q.in {
		if in {
			consider(Entry{ID: u, Upper: q.t.Upper(u)})
		}
	}
	if q.unseen && q.t.nseen < q.t.n {
		consider(Entry{ID: UnseenID, Upper: q.t.UnseenUpper()})
	}
	return best, found
}

func (q *denseQueue) Pop() (Entry, bool) {
	e, ok := q.Peek()
	if !ok {
		return e, false
	}
	if e.ID == UnseenID {
		q.unseen = false
	} else {
		q.in[e.ID] = false
	}
	return e, true
}

// tableOps interprets ops as a program over a sparse Table and Queue and
// their dense references, failing on the first observable difference. Every
// byte pair is one operation; sorted observations walk a real dataset's
// lists so bounds only ever fall, as the queue requires.
func tableOps(t *testing.T, n, m int, ops []byte) {
	t.Helper()
	funcs := []score.Func{score.Min(), score.Avg(), score.Max(), score.Product()}
	ds := datatest.MustGenerate(data.Uniform, n, m, int64(n*31+m))
	tab := MustNewTable(n, m, funcs[0])
	ref := newDenseTable(n, m, funcs[0])
	q, rq := NewQueue(tab, true), newDenseQueue(ref, true)
	cursor := make([]int, m)

	same := func(what string, got, want any) {
		t.Helper()
		if got != want {
			t.Fatalf("%s = %v, dense reference says %v", what, got, want)
		}
	}
	check := func(u int) {
		t.Helper()
		same("Upper", tab.Upper(u), ref.Upper(u))
		same("Lower", tab.Lower(u), ref.Lower(u))
		same("Seen", tab.Seen(u), ref.seen[u])
		same("KnownCount", tab.KnownCount(u), ref.nknown[u])
		same("Complete", tab.Complete(u), ref.nknown[u] == m)
		ex, ok := tab.Exact(u)
		rex, rok := ref.Exact(u)
		same("Exact", ex, rex)
		same("Exact ok", ok, rok)
		got, want := tab.UnknownPreds(u, nil), ref.UnknownPreds(u, nil)
		same("len(UnknownPreds)", len(got), len(want))
		for j := range got {
			same("UnknownPreds[j]", got[j], want[j])
			same("Known", tab.Known(u, got[j]), false)
		}
		same("Contains", q.Contains(u), rq.in[u])
	}
	for pc := 0; pc+1 < len(ops); pc += 2 {
		op, arg := ops[pc], int(ops[pc+1])
		u, i := (arg*7+int(op))%n, arg%m
		switch op % 8 {
		case 0, 1: // sorted access on list i: observe, then enqueue as NC does
			if cursor[i] == n {
				continue
			}
			obj, s := ds.SortedAt(i, cursor[i])
			cursor[i]++
			tab.ObserveSorted(i, obj, s)
			ref.ObserveSorted(i, obj, s)
			q.Add(obj)
			rq.Add(obj)
			check(obj)
		case 2: // probe, of a possibly untouched object
			tab.ObserveRandom(i, u, ds.Score(u, i))
			ref.ObserveRandom(i, u, ds.Score(u, i))
		case 3:
			e, ok := q.Peek()
			re, rok := rq.Peek()
			same("Peek", e, re)
			same("Peek ok", ok, rok)
		case 4: // emit the head: pop and retire
			e, ok := q.Pop()
			re, rok := rq.Pop()
			same("Pop", e, re)
			same("Pop ok", ok, rok)
			if ok && e.ID != UnseenID {
				q.Retire(e.ID)
				rq.retired[e.ID] = true
			}
		case 5:
			q.Add(u)
			rq.Add(u)
		case 6: // recycle both under another function and queue mode
			f, nwg := funcs[arg%len(funcs)], arg&4 == 0
			if err := tab.Reset(f); err != nil {
				t.Fatal(err)
			}
			ref.Reset(f)
			q.Reset(tab, nwg)
			rq = newDenseQueue(ref, nwg)
			clear(cursor)
		}
		check(u)
		same("UnseenUpper", tab.UnseenUpper(), ref.UnseenUpper())
		same("SeenCount", tab.SeenCount(), ref.nseen)
		same("AllSeen", tab.AllSeen(), ref.nseen == n)
		same("Depth", tab.Depth(i), ref.depth[i])
		same("LastSeen", tab.LastSeen(i), ref.lastSeen[i])
		if q.Contains(UnseenID) {
			same("Len", q.Len()-1, rq.Len())
		} else {
			same("Len", q.Len(), rq.Len())
		}
		if !tab.AllSeen() {
			same("Contains(unseen)", q.Contains(UnseenID), rq.unseen)
		}
	}
}

// TestTableMatchesDenseReference drives random programs through the sparse
// table and queue and their dense references, over universes small enough
// to be held whole and one large enough that an all-objects queue (nwg off)
// has to grow the slot arrays.
func TestTableMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []struct{ n, m, rounds int }{{1, 1, 10}, {7, 2, 10}, {40, 3, 10}, {kit.MinSlots + 90, 3, 3}} {
		for round := 0; round < shape.rounds; round++ {
			ops := make([]byte, 2*(200+rng.Intn(2000)))
			rng.Read(ops)
			tableOps(t, shape.n, shape.m, ops)
		}
	}
}

// FuzzTableOps is the same differential check with the fuzzer writing the
// program; the first two bytes pick the shape.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 0, 2, 3, 0, 4, 0, 6, 3, 0, 1, 4, 0})
	f.Add([]byte{200, 3, 6, 4, 3, 0, 4, 0, 4, 0, 2, 9, 5, 9, 6, 0, 0, 0})
	f.Add([]byte{0, 0, 2, 0, 2, 0, 4, 0, 5, 0, 3, 0})
	f.Add([]byte{255, 1, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 6, 1, 0, 0, 4, 0, 4, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		n, m := 1+2*int(prog[0]), 1+int(prog[1])%4
		tableOps(t, n, m, prog[2:])
	})
}
