package access

import (
	"context"
	"fmt"
	"slices"
)

// BatchBackend is the optional capability a backend may advertise to
// receive coalesced random accesses: one call resolves every (preds[i],
// objs[i]) probe, in order, into the returned scores. A batch maps to one
// round trip, which succeeds or fails as a unit; partial results are not
// modeled. Its predicates are in the advertising backend's own numbering,
// so it is found by asserting on that backend itself, never by walking
// below it with As — a projection in between would go unmapped.
type BatchBackend interface {
	Backend
	BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error)
}

// As finds the first layer of a backend stack, from b downward, that is a
// T — the errors.As shape. Every Backend that wraps another declares
// Unwrap() Backend; that is the whole convention. Use it for what holds
// whatever the predicate numbering above it: a concrete layer (the sharing
// layer and its hit rates, the disk store) or a stack-wide capability
// (shard membership, cache eviction).
func As[T any](b Backend) (T, bool) {
	for b != nil {
		if t, ok := b.(T); ok {
			return t, true
		}
		w, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			break
		}
		b = w.Unwrap()
	}
	var zero T
	return zero, false
}

// projection restricts a backend to a subset of its predicates,
// re-indexed 0..len(cols)-1. It holds no state of its own: cursors,
// caches, counters and health tracking stay with the backend below.
type projection struct {
	inner Backend
	pages Pager // inner's paged read
	cols  []int
}

// batchProjection is a projection of a backend that batches.
type batchProjection struct {
	projection
	batch BatchBackend
}

// Project returns b restricted to the predicate columns cols: predicate i
// of the result is predicate cols[i] of b. cols must be non-empty, in
// range and free of duplicates; selecting every column in order returns b
// itself. The result forwards Sorted and Random, and BatchRandom exactly
// when b has it, so batching callers never fall into a per-probe loop.
// A predicate outside the projection is an error on every access.
func Project(b Backend, cols []int) (Backend, error) {
	if err := checkCols(cols, b.M()); err != nil {
		return nil, err
	}
	if len(cols) == b.M() && slices.IsSorted(cols) { // every predicate, in order
		return b, nil
	}
	p := projection{inner: b, pages: Pages(b), cols: append([]int(nil), cols...)}
	if bb, ok := b.(BatchBackend); ok {
		return &batchProjection{projection: p, batch: bb}, nil
	}
	return &p, nil
}

// checkCols is the one rule for a column selection over m predicates —
// Project's, a session's (Option.Cols) and a scenario's (ProjectScenario):
// non-empty, in range, no predicate twice.
func checkCols(cols []int, m int) error {
	if len(cols) == 0 {
		return fmt.Errorf("access: projection selects no predicates")
	}
	for i, c := range cols {
		if c < 0 || c >= m {
			return fmt.Errorf("access: projection predicate %d out of range [0,%d)", c, m)
		}
		for _, prev := range cols[:i] {
			if prev == c {
				return fmt.Errorf("access: projection selects predicate %d twice", c)
			}
		}
	}
	return nil
}

// errProjectedPred formats the error of an access outside the projection.
// The accessors spell fmt.Errorf out in place rather than share a helper:
// topklint's hot-path rule exempts error construction only where it can see
// it.
const errProjectedPred = "access: predicate %d out of range [0,%d) of the projection"

// Unwrap returns the projected backend.
func (p *projection) Unwrap() Backend { return p.inner }

// N returns the object count; projection never renumbers objects.
func (p *projection) N() int { return p.inner.N() }

// M returns the number of projected predicates.
func (p *projection) M() int { return len(p.cols) }

// Page implements Pager on the mapped predicate.
//
//topklint:hotpath
func (p *projection) Page(ctx context.Context, pred, from int, buf []Entry) (int, error) {
	if pred < 0 || pred >= len(p.cols) {
		return 0, fmt.Errorf(errProjectedPred, pred, len(p.cols))
	}
	return p.pages.Page(ctx, p.cols[pred], from, buf)
}

// Sorted implements Backend as a page of one.
func (p *projection) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return Fields(SortedAt(ctx, p, pred, rank))
}

// Consumed implements ReadAheadCounter on the mapped predicate.
func (p *projection) Consumed(pred, n int) { Consumed(p.inner, p.cols[pred], n) }

// Random implements Backend on the mapped predicate.
//
//topklint:hotpath
func (p *projection) Random(ctx context.Context, pred, obj int) (float64, error) {
	if pred < 0 || pred >= len(p.cols) {
		return 0, fmt.Errorf(errProjectedPred, pred, len(p.cols))
	}
	return p.inner.Random(ctx, p.cols[pred], obj)
}

// BatchRandom implements BatchBackend on the mapped predicates.
func (p *batchProjection) BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error) {
	mapped := make([]int, len(preds))
	for i, pred := range preds {
		if pred < 0 || pred >= len(p.cols) {
			return nil, fmt.Errorf(errProjectedPred, pred, len(p.cols))
		}
		mapped[i] = p.cols[pred]
	}
	return p.batch.BatchRandom(ctx, mapped, objs)
}
