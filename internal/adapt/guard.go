package adapt

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/access"
	"repro/internal/kit"
)

// orderSlack absorbs float formatting round-trips (websim serves scores
// through JSON): neighbors within this distance are considered ordered,
// and a random result within it of the sorted sighting is consistent.
const orderSlack = 1e-9

// guardStream is the rank-indexed half of a predicate's witness state:
// what the source served at each rank, as deep as any rank served so far.
// With the guard's object-indexed half it lets each new claim be checked
// against every earlier one in O(1).
type guardStream struct {
	rankScore []float64 // score served at each rank; NaN = not yet served
	rankObj   []int32   // object served at each rank; -1 = not yet served
}

// at returns what was served at rank: (-1, NaN) if nothing was.
func (st *guardStream) at(rank int) (obj int32, score float64) {
	if rank < 0 || rank >= len(st.rankObj) {
		return -1, math.NaN()
	}
	return st.rankObj[rank], st.rankScore[rank]
}

// record notes that rank served (obj, score).
func (st *guardStream) record(rank, obj int, score float64) {
	for len(st.rankObj) <= rank {
		st.rankObj = append(st.rankObj, -1)
		st.rankScore = append(st.rankScore, math.NaN())
	}
	st.rankObj[rank], st.rankScore[rank] = int32(obj), score
}

// Guard wraps an access.Backend and enforces the source contract on every
// response before it reaches the session: sorted streams must descend,
// scores must be finite and in [0,1], each object appears at most once per
// stream, and random accesses must agree with what the sorted stream
// already claimed about the same object (and vice versa). Violating
// responses are rejected with a *access.ContractViolationError — the
// session refuses to bill them, and under resilience the breaker
// machinery quarantines a persistently lying capability exactly like a
// failing one, degrading the answer honestly instead of silently
// corrupting the threshold math.
//
// The guard wraps any Backend: everything above the wrap point sees only
// vetted responses (the facade installs it as the engine's outermost
// backend, so every session — and the plan the optimizer prices — works
// from vetted scores). It is safe for concurrent use.
type Guard struct {
	inner access.Backend
	pages access.Pager // inner's paged read

	mu      sync.Mutex
	streams []guardStream
	// The object-indexed half of the witness: one slot per object any
	// source has mentioned, holding one entry per predicate (slot*m+pred).
	// The guard outlives queries, so it costs 4 bytes per object of the
	// universe plus this, not four n-sized arrays per predicate.
	idx        kit.ObjIndex
	seenRank   []int32   // rank the object appeared at in pred's stream; -1 = not yet seen
	value      []float64 // score attributed to the object on pred; NaN = unknown
	violations map[string]int
}

var _ access.Backend = (*Guard)(nil)

// NewGuard wraps the backend with contract enforcement.
func NewGuard(inner access.Backend) *Guard {
	return &Guard{
		inner:      inner,
		pages:      access.Pages(inner),
		streams:    make([]guardStream, inner.M()),
		idx:        kit.NewObjIndex(inner.N()),
		violations: make(map[string]int),
	}
}

// Unwrap returns the wrapped backend (the access.As convention), so the
// layers and capabilities below the guard stay discoverable.
func (g *Guard) Unwrap() access.Backend { return g.inner }

// N returns the object count.
func (g *Guard) N() int { return g.inner.N() }

// M returns the predicate count.
func (g *Guard) M() int { return g.inner.M() }

// Violations snapshots the per-reason violation counts (keys from
// obs.ViolationReasons).
func (g *Guard) Violations() map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int, len(g.violations))
	for k, v := range g.violations {
		out[k] = v
	}
	return out
}

// witness returns the position in seenRank and value of what the sources
// have said about obj on pred, giving obj a slot at its first mention.
// Caller holds g.mu and has checked obj against the universe.
func (g *Guard) witness(pred, obj int) int {
	slot, ok := g.idx.Slot(obj)
	if !ok {
		slot = g.idx.Add(obj)
		for range g.streams {
			g.seenRank = append(g.seenRank, -1)
			g.value = append(g.value, math.NaN())
		}
	}
	return slot*len(g.streams) + pred
}

// reject records the violation and builds the error. Caller holds g.mu.
func (g *Guard) reject(kind access.Kind, pred int, reason, detail string) error {
	g.violations[reason]++
	return &access.ContractViolationError{Kind: kind, Pred: pred, Reason: reason, Detail: detail}
}

// Page fetches the one entry at rank of pred's list and vets it: finite
// score in [0,1], object in universe, no object at two ranks, descending
// order against recorded neighbor ranks, and consistency with any random
// access that already revealed this object's score. The guard serves one
// entry per page: its witness must record entries in the order a session
// consumes them, and it vets nothing the session has not asked for.
func (g *Guard) Page(ctx context.Context, pred, rank int, buf []access.Entry) (int, error) {
	if pred < 0 || pred >= len(g.streams) || rank < 0 || rank >= g.idx.N() {
		return 0, fmt.Errorf("adapt: page of p%d at rank %d outside %d x %d", pred+1, rank, g.idx.N(), len(g.streams))
	}
	if _, err := g.pages.Page(ctx, pred, rank, buf[:1]); err != nil {
		return 0, err
	}
	e := &buf[0]

	g.mu.Lock()
	st := &g.streams[pred]
	w, verr := g.vetSorted(st, pred, rank, e.Obj, e.Score)
	if verr == nil {
		st.record(rank, e.Obj, e.Score)
		g.seenRank[w] = int32(rank)
		g.value[w] = e.Score
	}
	g.mu.Unlock()

	if verr != nil {
		return 0, verr
	}
	return 1, nil
}

// Sorted implements access.Backend as a page of one.
func (g *Guard) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, g, pred, rank))
}

// vetSorted checks one sorted response against the witness state and
// returns the object's witness position. Caller holds g.mu.
func (g *Guard) vetSorted(st *guardStream, pred, rank, obj int, s float64) (int, error) {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 0, g.reject(access.SortedAccess, pred, "nan",
			fmt.Sprintf("rank %d returned non-finite score %v", rank, s))
	}
	if s < 0 || s > 1 {
		return 0, g.reject(access.SortedAccess, pred, "range",
			fmt.Sprintf("rank %d returned score %g outside [0,1]", rank, s))
	}
	if n := g.idx.N(); obj < 0 || obj >= n {
		return 0, g.reject(access.SortedAccess, pred, "range",
			fmt.Sprintf("rank %d returned object %d outside universe [0,%d)", rank, obj, n))
	}
	w := g.witness(pred, obj)
	if prev := g.seenRank[w]; prev >= 0 && int(prev) != rank {
		return 0, g.reject(access.SortedAccess, pred, "dup",
			fmt.Sprintf("object %d served at rank %d after rank %d", obj, rank, prev))
	}
	if prevObj, prevScore := st.at(rank); prevObj >= 0 {
		if int(prevObj) != obj || math.Abs(prevScore-s) > orderSlack {
			return 0, g.reject(access.SortedAccess, pred, "inconsistent",
				fmt.Sprintf("rank %d replayed as (u%d,%g) after (u%d,%g)", rank, obj, s, prevObj, prevScore))
		}
	}
	if _, above := st.at(rank - 1); !math.IsNaN(above) && s > above+orderSlack {
		return 0, g.reject(access.SortedAccess, pred, "unsorted",
			fmt.Sprintf("rank %d score %g above rank %d score %g", rank, s, rank-1, above))
	}
	if _, below := st.at(rank + 1); !math.IsNaN(below) && s+orderSlack < below {
		return 0, g.reject(access.SortedAccess, pred, "unsorted",
			fmt.Sprintf("rank %d score %g below rank %d score %g", rank, s, rank+1, below))
	}
	if v := g.value[w]; !math.IsNaN(v) && math.Abs(v-s) > orderSlack {
		return 0, g.reject(access.SortedAccess, pred, "inconsistent",
			fmt.Sprintf("object %d sorted score %g contradicts recorded %g", obj, s, v))
	}
	return w, nil
}

// Random fetches p_pred[obj] and vets it: finite, in [0,1], and
// consistent with the score any earlier sorted sighting or probe
// attributed to the same object.
func (g *Guard) Random(ctx context.Context, pred, obj int) (float64, error) {
	if pred < 0 || pred >= len(g.streams) || obj < 0 || obj >= g.idx.N() {
		return 0, fmt.Errorf("adapt: probe of p%d object %d outside %d x %d", pred+1, obj, g.idx.N(), len(g.streams))
	}
	v, err := g.inner.Random(ctx, pred, obj)
	if err != nil {
		return 0, err
	}

	g.mu.Lock()
	verr := g.vetRandom(pred, obj, v)
	g.mu.Unlock()

	if verr != nil {
		return 0, verr
	}
	return v, nil
}

// vetRandom checks one probe result against the witness state and, when it
// holds up, records it. Caller holds g.mu.
func (g *Guard) vetRandom(pred, obj int, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return g.reject(access.RandomAccess, pred, "nan",
			fmt.Sprintf("probe of object %d returned non-finite score %v", obj, v))
	}
	if v < 0 || v > 1 {
		return g.reject(access.RandomAccess, pred, "range",
			fmt.Sprintf("probe of object %d returned score %g outside [0,1]", obj, v))
	}
	w := g.witness(pred, obj)
	if claimed := g.value[w]; !math.IsNaN(claimed) && math.Abs(claimed-v) > orderSlack {
		return g.reject(access.RandomAccess, pred, "inconsistent",
			fmt.Sprintf("probe of object %d returned %g but sorted stream claimed %g", obj, v, claimed))
	}
	g.value[w] = v
	return nil
}
