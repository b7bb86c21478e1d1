// Fixture for the billedaccess analyzer: raw backend calls outside the
// ledgered layers are flagged; forwarding and Session use are not.
package billed

import (
	"context"

	"repro/internal/access"
)

// Probe performs a raw sorted access: invisible to any ledger.
func Probe(ctx context.Context, b access.Backend) error {
	_, _, err := b.Sorted(ctx, 0, 0) // want "unbilled Sorted access"
	return err
}

// ProbeRandom performs a raw random access.
func ProbeRandom(ctx context.Context, b access.Backend) (float64, error) {
	return b.Random(ctx, 0, 0) // want "unbilled Random access"
}

// Read performs a raw page read.
func Read(ctx context.Context, b access.Backend) error {
	var buf [4]access.Entry
	_, err := access.Pages(b).Page(ctx, 0, 0, buf[:]) // want "unbilled Page access"
	return err
}

// Batch performs a raw batched access.
func Batch(ctx context.Context, b access.BatchBackend) ([]float64, error) {
	return b.BatchRandom(ctx, nil, nil) // want "unbilled BatchRandom access"
}

// wrapper composes a backend: same-named delegation is forwarding, not an
// unbilled access, and Unwrap keeps the stack below it discoverable. It
// forwards pages as well as entries, so a session reads it page by page.
type wrapper struct{ inner access.Backend }

func (w wrapper) Unwrap() access.Backend { return w.inner }

func (w wrapper) N() int { return w.inner.N() }
func (w wrapper) M() int { return w.inner.M() }

// Page forwards to the wrapped backend's paged read.
func (w *wrapper) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	return access.Pages(w.inner).Page(ctx, pred, from, buf)
}

// Sorted forwards to the wrapped backend.
func (w wrapper) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return w.inner.Sorted(ctx, pred, rank)
}

// Random forwards — but its cross-method Sorted and Page calls are genuine
// accesses the ledger never sees.
func (w wrapper) Random(ctx context.Context, pred, obj int) (float64, error) {
	if pred == 0 {
		_, _, err := w.inner.Sorted(ctx, 0, 0) // want "unbilled Sorted access"
		if err != nil {
			return 0, err
		}
	}
	if pred == 1 {
		var e [1]access.Entry
		if _, err := access.Pages(w.inner).Page(ctx, 1, 0, e[:]); err != nil { // want "unbilled Page access"
			return 0, err
		}
	}
	return w.inner.Random(ctx, pred, obj)
}

// derived forwards pages and derives Sorted from its own Page: allowed.
type derived struct{ inner access.Backend }

func (d derived) Unwrap() access.Backend { return d.inner }

func (d derived) N() int { return d.inner.N() }
func (d derived) M() int { return d.inner.M() }

func (d derived) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	return access.Pages(d.inner).Page(ctx, pred, from, buf)
}

func (d derived) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return access.Fields(access.SortedAt(ctx, d, pred, rank))
}

func (d derived) Random(ctx context.Context, pred, obj int) (float64, error) {
	return d.inner.Random(ctx, pred, obj)
}

// entryWise forwards Sorted but not Page: a session would read it one
// entry per call, through the adapter, whatever the backend below serves.
type entryWise struct{ inner access.Backend }

func (e entryWise) Unwrap() access.Backend { return e.inner }

func (e entryWise) N() int { return e.inner.N() }
func (e entryWise) M() int { return e.inner.M() }

func (e entryWise) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return e.inner.Sorted(ctx, pred, rank) // want "forwards Sorted but not Page"
}

func (e entryWise) Random(ctx context.Context, pred, obj int) (float64, error) {
	return e.inner.Random(ctx, pred, obj)
}

// opaque forwards like wrapper but hides what it wraps: reported once, at
// its first forwarding call.
type opaque struct{ inner access.Backend }

func (o opaque) N() int { return o.inner.N() }
func (o opaque) M() int { return o.inner.M() }

func (o opaque) Page(ctx context.Context, pred, from int, buf []access.Entry) (int, error) {
	return access.Pages(o.inner).Page(ctx, pred, from, buf) // want "without Unwrap"
}

func (o opaque) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	return o.inner.Sorted(ctx, pred, rank)
}

func (o opaque) Random(ctx context.Context, pred, obj int) (float64, error) {
	return o.inner.Random(ctx, pred, obj)
}

// Health documents its out-of-ledger probe with an allow directive.
func Health(ctx context.Context, b access.Backend) error {
	//topklint:allow billedaccess readiness probe, not query traffic (fixture)
	_, _, err := b.Sorted(ctx, 0, 0)
	return err
}

// ViaSession is the sanctioned route: Session bills every access, and its
// Random has a different shape, so it never matches the Backend interface.
func ViaSession(s *access.Session) (float64, error) {
	return s.Random(0, 0)
}
