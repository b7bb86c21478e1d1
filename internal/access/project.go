package access

import (
	"context"
	"fmt"
)

// BatchBackend is the optional capability a backend may advertise to
// resolve many random accesses at once: one call resolves every (preds[i],
// objs[i]) probe, in order, into the returned scores. A batch maps to one
// round trip, which succeeds or fails as a unit; partial results are not
// modeled. Its predicates are in the advertising backend's own numbering,
// so it is found by asserting on that backend itself, never by walking
// below it with As — a layer in between that renumbers predicates would go
// unmapped.
type BatchBackend interface {
	Backend
	BatchRandom(ctx context.Context, preds, objs []int) ([]float64, error)
}

// As finds the first layer of a backend stack, from b downward, that is a
// T — the errors.As shape. Every Backend that wraps another declares
// Unwrap() Backend; that is the whole convention. Use it for what holds
// whatever the predicate numbering above it: a concrete layer (the sharing
// layer and its hit rates, the disk store) or a stack-wide capability
// (cache eviction).
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

// checkCols is the one rule for a column selection over m predicates — a
// session's (Option.Cols) and a scenario's (ProjectScenario): non-empty,
// in range, no predicate twice.
func checkCols(cols []int, m int) error {
	if len(cols) == 0 {
		return fmt.Errorf("access: column selection is empty")
	}
	for i, c := range cols {
		if c < 0 || c >= m {
			return fmt.Errorf("access: column selection names predicate %d, out of range [0,%d)", c, m)
		}
		for _, prev := range cols[:i] {
			if prev == c {
				return fmt.Errorf("access: column selection names predicate %d twice", c)
			}
		}
	}
	return nil
}
