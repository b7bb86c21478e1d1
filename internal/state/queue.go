package state

import (
	"fmt"
)

// Entry is one candidate in the queue: an object id (possibly UnseenID)
// with its maximal-possible score as of the last validation.
type Entry struct {
	ID    int
	Upper float64
}

// Before reports whether e ranks strictly ahead of o under the
// deterministic order: higher upper first, then higher id. UnseenID (-1)
// therefore loses ties against every real object, which keeps runs
// deterministic and lets seen objects surface first.
func (e Entry) Before(o Entry) bool {
	if e.Upper != o.Upper {
		return e.Upper > o.Upper
	}
	return e.ID > o.ID
}

// Queue is a priority queue of candidate objects ordered by
// maximal-possible score, the "search mechanism for finding unsatisfied
// tasks" suggested by Section 6.1. Because upper bounds only ever
// decrease, the queue revalidates lazily: an entry popped with a stale
// (too-high) cached bound is recomputed and reinserted; an entry whose
// cached bound matches its current bound is genuinely the maximum.
//
// Under the no-wild-guesses rule the queue starts holding only the virtual
// unseen object (Figure 10); real objects are added as sorted accesses
// reveal them. Without the rule, all objects start in the queue with the
// perfect bound F(1,...,1).
//
// The heap is hand-rolled (typed sift-up/sift-down over []Entry) rather
// than container/heap: the interface-based API boxes every Entry pushed or
// popped, and those per-access allocations dominated serve-path profiles.
// All queue operations are allocation-free once the backing arrays have
// grown to their high-water mark.
//
// Membership is one byte per touched object, kept in the table's slots
// (slotMeta.mark), so a queue costs nothing per object it never held. A
// table serves one queue at a time.
//
//topklint:pooled
type Queue struct {
	t        *Table
	h        []node
	hasUnsn  bool
	nwgStart bool
	scratch  []Entry // TopN result buffer, reused across calls
}

// node is a heap entry: an Entry plus the object's table slot, so that
// revalidating the root — the queue's inner loop — reads the table's slot
// arrays directly instead of going through its object index. It is sixteen
// bytes, like Entry: ids and slots are int32, which NewTable's bound on n
// guarantees they fit.
type node struct {
	upper float64
	id    int32
	slot  int32 // unused by the UnseenID entry
}

func (a node) entry() Entry { return Entry{ID: int(a.id), Upper: a.upper} }

func (a node) before(b node) bool { return a.entry().Before(b.entry()) }

// NewQueue builds the candidate queue. If nwg is true, only the virtual
// unseen object is enqueued initially; otherwise every object is.
func NewQueue(t *Table, nwg bool) *Queue {
	q := &Queue{}
	q.Reset(t, nwg)
	return q
}

// Reset re-initializes the queue over a (possibly different) table,
// reusing the backing arrays. It restores exactly the NewQueue state, so
// pooled queues behave identically to fresh ones.
func (q *Queue) Reset(t *Table, nwg bool) {
	q.t = t
	q.h = q.h[:0]
	// O(1) after the usual Table.Reset; over a table still in use, forget
	// what an earlier queue marked.
	for s := range t.meta[:t.idx.Len()] {
		t.meta[s].mark = absent
	}
	q.hasUnsn = false
	q.nwgStart = nwg
	q.scratch = q.scratch[:0]
	if nwg {
		q.pushRaw(Entry{ID: UnseenID, Upper: t.UnseenUpper()})
	} else {
		for u := 0; u < t.N(); u++ {
			q.pushRaw(Entry{ID: u, Upper: t.Upper(u)})
		}
	}
}

// siftUp restores the heap invariant after appending at index i.
//
//topklint:hotpath
func (q *Queue) siftUp(i int) {
	h := q.h
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown restores the heap invariant after replacing the entry at index
// i (with n live entries).
//
//topklint:hotpath
func (q *Queue) siftDown(i int) {
	h := q.h
	n := len(h)
	e := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			best = r
		}
		if !h[best].before(e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}

// Membership marks of a real object.
const (
	absent uint8 = iota
	queued
	retired
)

// claim marks id as enqueued and returns its table slot, reporting false —
// and changing nothing — if it already is, or was retired.
//
//topklint:hotpath
func (q *Queue) claim(id int) (slot int, ok bool) {
	if id == UnseenID {
		if q.hasUnsn {
			return 0, false
		}
		q.hasUnsn = true
		return 0, true
	}
	slot = q.t.touch(id)
	mark := &q.t.meta[slot].mark
	if *mark != absent {
		return slot, false
	}
	*mark = queued
	return slot, true
}

// push adds a claimed entry to the heap. A full heap doubles: append's
// 1.25x steps would copy it some twenty-five times on the way to a deep
// query's high-water mark.
//
//topklint:hotpath
func (q *Queue) push(id, slot int, upper float64) {
	if len(q.h) == cap(q.h) {
		//topklint:allow hotpathalloc lazy growth: a pooled queue stops growing at its deepest query
		q.h = append(make([]node, 0, max(2*cap(q.h), 64)), q.h...)
	}
	q.h = append(q.h, node{upper: upper, id: int32(id), slot: int32(slot)})
	q.siftUp(len(q.h) - 1)
}

//topklint:hotpath
func (q *Queue) pushRaw(e Entry) {
	if slot, ok := q.claim(e.ID); ok {
		q.push(e.ID, slot, e.Upper)
	}
}

// popTop removes and returns the heap root without validation.
//
//topklint:hotpath
func (q *Queue) popTop() node {
	h := q.h
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.h = h[:last]
	if last > 0 {
		q.siftDown(0)
	}
	if e.id == UnseenID {
		q.hasUnsn = false
	} else {
		q.t.meta[e.slot].mark = absent
	}
	return e
}

// Add enqueues object u (typically when it is first seen). Adding an
// object already present, or retired, is a no-op.
//
//topklint:hotpath
func (q *Queue) Add(u int) {
	if u == UnseenID {
		//topklint:allow nopanic caller contract: UnseenID is a package-internal sentinel no algorithm receives from an access
		panic("state: Add(UnseenID); the unseen entry is managed internally")
	}
	if slot, ok := q.claim(u); ok {
		q.push(u, slot, q.t.upperAt(slot))
	}
}

// Len returns the number of candidates currently enqueued.
func (q *Queue) Len() int { return len(q.h) }

// Contains reports whether id is in the queue.
func (q *Queue) Contains(id int) bool {
	if id == UnseenID {
		return q.hasUnsn
	}
	s, ok := q.t.idx.Slot(id)
	return ok && q.t.meta[s].mark == queued
}

// Retire bars object u, already popped, from the queue for good: a later
// Add(u) is a no-op. Algorithms retire an object when they emit it as an
// answer, so a sorted access returning it again does not re-enqueue it.
//
//topklint:hotpath
func (q *Queue) Retire(u int) { q.t.meta[q.t.touch(u)].mark = retired }

// revalidateTop restores the invariant that the heap root carries its
// current (not stale) upper bound, dropping the unseen entry once all
// objects have been seen. Returns false when the queue is empty.
//
//topklint:hotpath
func (q *Queue) revalidateTop() bool {
	for len(q.h) > 0 {
		top := q.h[0]
		var cur float64
		if top.id != UnseenID {
			cur = q.t.upperAt(int(top.slot))
		} else if q.t.AllSeen() {
			q.popTop()
			continue
		} else {
			cur = q.t.UnseenUpper()
		}
		if cur < top.upper {
			q.h[0].upper = cur
			q.siftDown(0)
			continue
		}
		return true
	}
	return false
}

// Peek returns the current best candidate without removing it.
//
//topklint:hotpath
func (q *Queue) Peek() (Entry, bool) {
	if !q.revalidateTop() {
		return Entry{}, false
	}
	return q.h[0].entry(), true
}

// Pop removes and returns the current best candidate.
//
//topklint:hotpath
func (q *Queue) Pop() (Entry, bool) {
	if !q.revalidateTop() {
		return Entry{}, false
	}
	return q.popTop().entry(), true
}

// TopN returns the current best n candidates in order without disturbing
// the queue (entries are popped with validation and reinserted). It is
// used by the parallel executor to find several distinct unsatisfied
// tasks, and by K_P-style inspection in tests. The returned slice is a
// scratch buffer owned by the queue, valid only until the next TopN call;
// callers that retain it must copy.
func (q *Queue) TopN(n int) []Entry {
	if n <= 0 {
		return nil
	}
	out := q.scratch[:0]
	for len(out) < n {
		e, ok := q.Pop()
		if !ok {
			break
		}
		out = append(out, e)
	}
	for _, e := range out {
		q.pushRaw(e)
	}
	q.scratch = out
	return out
}

// String summarizes the queue for debugging.
func (q *Queue) String() string {
	return fmt.Sprintf("queue(len=%d, unseen=%v)", len(q.h), q.hasUnsn)
}
