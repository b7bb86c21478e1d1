// Package state implements the score-state bookkeeping that top-k
// middleware algorithms share: per-object partial scores gathered from
// accesses, last-seen bounds from sorted accesses, maximal-possible and
// minimal-possible overall scores, seen/unseen tracking with the virtual
// "unseen" object of Section 8 (Figure 10), and a lazily-revalidated
// priority queue of candidates ordered by maximal-possible score — the
// mechanism Theorem 1 calls for to find unsatisfied scoring tasks.
package state

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/kit"
	"repro/internal/score"
)

// UnseenID is the pseudo object id of the virtual "unseen" object that
// represents all objects not yet returned by any sorted access (Section 8).
const UnseenID = -1

// Table tracks everything an algorithm knows about object scores at a
// point in time. It is pure bookkeeping: algorithms perform accesses
// through an access.Session and feed the results in via ObserveSorted and
// ObserveRandom. Not safe for concurrent use. Tables are recycled across
// queries inside the pooled algo.Scratch.
//
// Memory contract: the table holds 4 bytes per object of the universe (its
// object index) and everything else in proportion to the objects the query
// has touched — per-object facts live in slot-indexed arrays behind the
// index, a slot being assigned the first time an object is observed or
// enqueued. An untouched object reads as the virtual unseen object does:
// nothing known, not seen, Upper equal to UnseenUpper.
//
//topklint:pooled
type Table struct {
	f    score.Func //topklint:allow resetcomplete Reset(nil) deliberately keeps the scoring function; non-nil swaps it
	n, m int        //topklint:allow resetcomplete identity: a recycled table serves the same n objects; Rearm changes m

	idx kit.ObjIndex // object id -> slot

	// Slot-indexed facts, grown together by grow. Reset leaves them alone:
	// a slot is zeroed when touch hands it out.
	val   []float64  //topklint:allow resetcomplete slot fact (slot*m+pred): stale values are unreachable, known gates every read
	known []bool     //topklint:allow resetcomplete slot fact (slot*m+pred): unreachable once Reset empties the index, zeroed by touch on reuse
	meta  []slotMeta //topklint:allow resetcomplete slot fact: unreachable once Reset empties the index, zeroed by touch on reuse

	lastSeen []float64
	depth    []int // sorted accesses performed per predicate
	nseen    int

	buf []float64 //topklint:allow resetcomplete Eval scratch, fully overwritten before every read
}

// slotMeta is what a slot holds besides its m scores.
type slotMeta struct {
	nknown int32 // how many of the m predicates are known
	seen   bool
	mark   uint8 // the table's Queue keeps its membership here: absent, queued or retired
}

// NewTable creates an empty table for n objects, m predicates, and scoring
// function f. All last-seen bounds start at the perfect 1.0.
func NewTable(n, m int, f score.Func) (*Table, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("state: table requires positive sizes, got n=%d m=%d", n, m)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("state: table holds object ids in 32 bits, got n=%d", n)
	}
	if err := score.Validate(f, m); err != nil {
		return nil, err
	}
	t := &Table{
		f:        f,
		n:        n,
		m:        m,
		idx:      kit.NewObjIndex(n),
		lastSeen: make([]float64, m),
		depth:    make([]int, m),
		buf:      make([]float64, m),
	}
	t.grow()
	for i := range t.lastSeen {
		t.lastSeen[i] = 1
	}
	return t, nil
}

// Reset restores the table to its as-new state for a fresh run over the
// same n and m, optionally swapping the scoring function (nil keeps the
// current one). It reuses every backing array, so pooled tables make a
// query execution allocation-free, and it costs O(m) whatever the previous
// run touched: emptying the index orphans every slot at once.
func (t *Table) Reset(f score.Func) error {
	if f != nil {
		if err := score.Validate(f, t.m); err != nil {
			return err
		}
		t.f = f
	}
	t.idx.Reset()
	clear(t.depth)
	t.nseen = 0
	for i := range t.lastSeen {
		t.lastSeen[i] = 1
	}
	return nil
}

// Rearm is Reset for a run over m predicates of the same universe, with
// scoring function f: one pooled table serves queries over any number of
// columns. It keeps the widest arrays it has had and lays the slot facts
// out at the new width — there are none to keep once the index is emptied.
func (t *Table) Rearm(m int, f score.Func) error {
	if err := score.Validate(f, m); err != nil {
		return err
	}
	if m != t.m {
		t.m = m
		t.lastSeen = slices.Grow(t.lastSeen[:0], m)[:m]
		t.depth = slices.Grow(t.depth[:0], m)[:m]
		t.buf = slices.Grow(t.buf[:0], m)[:m]
		w := len(t.meta) * m
		t.val, t.known = slices.Grow(t.val[:0], w)[:w], slices.Grow(t.known[:0], w)[:w]
	}
	return t.Reset(f)
}

// grow resizes the slot arrays to the index's next capacity in one
// struct-of-arrays step (cold path: a pooled table stops growing once it
// has served its widest query).
func (t *Table) grow() {
	slots := t.idx.Grow()
	val := make([]float64, slots*t.m)
	copy(val, t.val)
	known := make([]bool, slots*t.m)
	copy(known, t.known)
	meta := make([]slotMeta, slots)
	copy(meta, t.meta)
	t.val, t.known, t.meta = val, known, meta
}

// touch returns u's slot, assigning and zeroing one on first touch.
//
//topklint:hotpath
func (t *Table) touch(u int) int {
	if s, ok := t.idx.Slot(u); ok {
		return s
	}
	if t.idx.Len() == t.idx.Cap() {
		//topklint:allow hotpathalloc lazy slot growth: a pooled table stops growing at its widest query, every later touch reuses slots
		t.grow()
	}
	s := t.idx.Add(u)
	for i := 0; i < t.m; i++ { // m is small: cheaper than a memclr call
		t.known[s*t.m+i] = false
	}
	t.meta[s] = slotMeta{}
	return s
}

// N returns the object count.
func (t *Table) N() int { return t.n }

// M returns the predicate count.
func (t *Table) M() int { return t.m }

// Func returns the scoring function.
func (t *Table) Func() score.Func { return t.f }

// ObserveSorted records the result of sa_i returning object u with score
// s: p_i[u] becomes known, u becomes seen, and the last-seen bound ell_i
// drops to s (its side effect on all objects still unseen in list i).
//
//topklint:hotpath
func (t *Table) ObserveSorted(i, u int, s float64) {
	slot := t.touch(u)
	t.setKnown(slot, i, s)
	t.lastSeen[i] = s
	t.depth[i]++
	if !t.meta[slot].seen {
		t.meta[slot].seen = true
		t.nseen++
	}
}

// ObserveRandom records the result of ra_i(u) = s. Random access has no
// side effects on other objects and does not make u "seen" (under
// no-wild-guesses it could only have been issued for a seen object anyway;
// without the rule, probing is score gathering, not list discovery).
//
//topklint:hotpath
func (t *Table) ObserveRandom(i, u int, s float64) {
	t.setKnown(t.touch(u), i, s)
}

//topklint:hotpath
func (t *Table) setKnown(slot, i int, s float64) {
	idx := slot*t.m + i
	if !t.known[idx] {
		t.known[idx] = true
		t.meta[slot].nknown++
	}
	t.val[idx] = s
}

// Known reports whether p_i[u] has been determined.
func (t *Table) Known(u, i int) bool {
	slot, ok := t.idx.Slot(u)
	return ok && t.known[slot*t.m+i]
}

// Value returns the known score p_i[u]; it panics if unknown (callers must
// check Known), since silently returning a bound here would corrupt exact
// score reporting.
func (t *Table) Value(u, i int) float64 {
	slot, ok := t.idx.Slot(u)
	if !ok || !t.known[slot*t.m+i] {
		//topklint:allow nopanic caller contract: Known(u,i) must be checked first; a silent bound here would corrupt exact score reporting
		panic(fmt.Sprintf("state: Value(u%d, p%d) is not known", u, i+1))
	}
	return t.val[slot*t.m+i]
}

// Complete reports whether object u has been fully evaluated on all
// predicates (the completeness notion of Definition 1, case 1).
func (t *Table) Complete(u int) bool { return t.KnownCount(u) == t.m }

// KnownCount returns how many of u's predicates are determined.
func (t *Table) KnownCount(u int) int {
	slot, ok := t.idx.Slot(u)
	if !ok {
		return 0
	}
	return int(t.meta[slot].nknown)
}

// UnknownPreds appends the indices of u's undetermined predicates to dst
// and returns it. Pass a reusable slice to avoid allocation.
func (t *Table) UnknownPreds(u int, dst []int) []int {
	slot, ok := t.idx.Slot(u)
	for i := 0; i < t.m; i++ {
		if !ok || !t.known[slot*t.m+i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// LastSeen returns ell_i, the score bound established by the deepest
// sorted access on predicate i so far (1.0 before any access).
func (t *Table) LastSeen(i int) float64 { return t.lastSeen[i] }

// Depth returns the number of sorted accesses recorded on predicate i.
func (t *Table) Depth(i int) int { return t.depth[i] }

// Seen reports whether u has been returned by any sorted access.
func (t *Table) Seen(u int) bool {
	slot, ok := t.idx.Slot(u)
	return ok && t.meta[slot].seen
}

// SeenCount returns the number of distinct seen objects.
func (t *Table) SeenCount() int { return t.nseen }

// AllSeen reports whether every object has been seen, i.e. the virtual
// unseen object no longer exists.
func (t *Table) AllSeen() bool { return t.nseen == t.n }

// Upper computes the maximal-possible score F-bar(u) of Eq. 3: F applied
// to the known scores with every undetermined predicate replaced by its
// last-seen bound ell_i. By monotonicity this upper-bounds F(u), and it is
// non-increasing over time.
//
//topklint:hotpath
func (t *Table) Upper(u int) float64 {
	slot, ok := t.idx.Slot(u)
	if !ok {
		return t.UnseenUpper()
	}
	return t.upperAt(slot)
}

// upperAt is Upper for the object in slot.
//
//topklint:hotpath
func (t *Table) upperAt(slot int) float64 {
	base := slot * t.m
	for i := 0; i < t.m; i++ {
		if t.known[base+i] {
			t.buf[i] = t.val[base+i]
		} else {
			t.buf[i] = t.lastSeen[i]
		}
	}
	return t.f.Eval(t.buf)
}

// Lower computes the minimal-possible score F-floor(u): undetermined
// predicates replaced by 0. It lower-bounds F(u) and is non-decreasing;
// NRA-style algorithms halt on it.
//
//topklint:hotpath
func (t *Table) Lower(u int) float64 {
	slot, ok := t.idx.Slot(u)
	base := slot * t.m
	for i := 0; i < t.m; i++ {
		if ok && t.known[base+i] {
			t.buf[i] = t.val[base+i]
		} else {
			t.buf[i] = 0
		}
	}
	return t.f.Eval(t.buf)
}

// Exact returns F(u) if u is complete.
func (t *Table) Exact(u int) (float64, bool) {
	slot, ok := t.idx.Slot(u)
	if !ok || int(t.meta[slot].nknown) != t.m {
		return 0, false
	}
	base := slot * t.m
	copy(t.buf, t.val[base:base+t.m])
	return t.f.Eval(t.buf), true
}

// UnseenUpper computes the maximal-possible score of the virtual unseen
// object: F(ell_1, ..., ell_m). Every unseen object is bounded by it.
//
//topklint:hotpath
func (t *Table) UnseenUpper() float64 {
	copy(t.buf, t.lastSeen)
	return t.f.Eval(t.buf)
}

// UpperOf returns Upper(u) for real objects and UnseenUpper for UnseenID.
//
//topklint:hotpath
func (t *Table) UpperOf(id int) float64 {
	if id == UnseenID {
		return t.UnseenUpper()
	}
	return t.Upper(id)
}
