package kit

// ObjIndex maps the object ids a query has touched, out of a universe
// [0, n), onto dense slots 0, 1, 2, ... in first-touch order — a
// Briggs–Torczon sparse set. Its owner keeps every per-object fact in
// arrays indexed by slot, so query state grows with the objects touched
// and not with n; the index itself is the only thing sized by the
// universe, at 4 bytes per object.
//
// sparse[u] is a guess at u's slot that counts only where dense agrees
// (dense[sparse[u]] == u), so sparse is never cleared: Reset truncates
// dense and every stale guess stops agreeing at once. An id outside
// [0, n) panics like any slice index; ids from outside the program are
// range-checked before they get here. n must fit in a uint32.
type ObjIndex struct {
	sparse []uint32
	dense  []uint32
}

// NewObjIndex returns an empty index over n objects.
func NewObjIndex(n int) ObjIndex {
	return ObjIndex{sparse: make([]uint32, n)}
}

// N returns the size of the universe.
func (x *ObjIndex) N() int { return len(x.sparse) }

// Len returns how many objects have been touched; their slots are
// 0..Len()-1.
func (x *ObjIndex) Len() int { return len(x.dense) }

// Slot returns the slot of object u, or false if u is untouched.
//
//topklint:hotpath
func (x *ObjIndex) Slot(u int) (int, bool) {
	s := x.sparse[u]
	if int(s) < len(x.dense) && x.dense[s] == uint32(u) {
		return int(s), true
	}
	return 0, false
}

// Add assigns the next free slot to object u, which must be untouched, and
// returns it. The owner initializes the slot's facts: slots are recycled
// across Resets with whatever the previous occupant left there.
//
//topklint:hotpath
func (x *ObjIndex) Add(u int) int {
	x.sparse[u] = uint32(len(x.dense))
	x.dense = append(x.dense, uint32(u))
	return len(x.dense) - 1
}

// MinSlots is the least slot capacity Grow starts from (a smaller universe
// is simply held whole).
const MinSlots = 4096

// Cap returns the slot capacity: how many objects can be touched before Add
// allocates.
func (x *ObjIndex) Cap() int { return cap(x.dense) }

// Grow raises the slot capacity and returns it, for an owner that keeps its
// slot arrays sized alongside: first to n/32 — a fresh owner's slot arrays
// then add a fraction to what the index itself costs, and only a query
// touching over 3% of the universe grows them — then by doubling, never
// past n.
func (x *ObjIndex) Grow() int {
	n := len(x.sparse)
	slots := min(max(2*cap(x.dense), n/32, MinSlots), n)
	x.dense = append(make([]uint32, 0, slots), x.dense...)
	return slots
}

// Reset forgets every touched object in O(1).
func (x *ObjIndex) Reset() { x.dense = x.dense[:0] }
