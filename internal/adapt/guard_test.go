package adapt

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
)

// lyingBackend wraps an honest dataset backend and rewrites selected
// responses, modelling a source that violates the access contract.
type lyingBackend struct {
	access.Backend
	sorted func(pred, rank int, obj int, s float64) (int, float64)
	random func(pred, obj int, v float64) float64
}

func (b *lyingBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	obj, s, err := b.Backend.Sorted(ctx, pred, rank)
	if err != nil || b.sorted == nil {
		return obj, s, err
	}
	obj, s = b.sorted(pred, rank, obj, s)
	return obj, s, nil
}

func (b *lyingBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	v, err := b.Backend.Random(ctx, pred, obj)
	if err != nil || b.random == nil {
		return v, err
	}
	return b.random(pred, obj, v), nil
}

func honest(t *testing.T) access.Backend {
	t.Helper()
	ds, err := data.Generate(data.Uniform, 32, 2, 7)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return access.DatasetBackend{DS: ds}
}

func wantViolation(t *testing.T, err error, reason string) *access.ContractViolationError {
	t.Helper()
	if err == nil {
		t.Fatalf("want %s violation, got nil error", reason)
	}
	if !errors.Is(err, access.ErrContractViolation) {
		t.Fatalf("error does not wrap ErrContractViolation: %v", err)
	}
	var cve *access.ContractViolationError
	if !errors.As(err, &cve) {
		t.Fatalf("error is not a ContractViolationError: %v", err)
	}
	if cve.Reason != reason {
		t.Fatalf("violation reason = %q, want %q (err: %v)", cve.Reason, reason, err)
	}
	return cve
}

func TestGuardPassesHonestSource(t *testing.T) {
	g := NewGuard(honest(t))
	ctx := context.Background()
	for rank := 0; rank < 32; rank++ {
		if _, _, err := g.Sorted(ctx, 0, rank); err != nil {
			t.Fatalf("honest sorted access rejected at rank %d: %v", rank, err)
		}
	}
	for obj := 0; obj < 32; obj++ {
		if _, err := g.Random(ctx, 1, obj); err != nil {
			t.Fatalf("honest random access rejected for object %d: %v", obj, err)
		}
	}
	// Cross-check: probing objects the sorted stream already revealed.
	for obj := 0; obj < 32; obj++ {
		if _, err := g.Random(ctx, 0, obj); err != nil {
			t.Fatalf("consistent probe rejected for object %d: %v", obj, err)
		}
	}
	if n := len(g.Violations()); n != 0 {
		t.Fatalf("honest source recorded %d violation kinds: %v", n, g.Violations())
	}
}

func TestGuardDetectsNaN(t *testing.T) {
	g := NewGuard(&lyingBackend{Backend: honest(t),
		sorted: func(pred, rank, obj int, s float64) (int, float64) {
			if rank == 3 {
				return obj, math.NaN()
			}
			return obj, s
		}})
	ctx := context.Background()
	for rank := 0; rank < 3; rank++ {
		if _, _, err := g.Sorted(ctx, 0, rank); err != nil {
			t.Fatalf("clean rank %d rejected: %v", rank, err)
		}
	}
	_, _, err := g.Sorted(ctx, 0, 3)
	wantViolation(t, err, "nan")
	if g.Violations()["nan"] != 1 {
		t.Fatalf("violations = %v, want nan:1", g.Violations())
	}
}

func TestGuardDetectsUnsorted(t *testing.T) {
	var prev float64
	g := NewGuard(&lyingBackend{Backend: honest(t),
		sorted: func(pred, rank, obj int, s float64) (int, float64) {
			if rank == 5 {
				return obj, prev + 0.001 // jumps above rank 4's score, within [0,1]
			}
			prev = s
			return obj, s
		}})
	ctx := context.Background()
	for rank := 0; rank < 5; rank++ {
		if _, _, err := g.Sorted(ctx, 0, rank); err != nil {
			t.Fatalf("clean rank %d rejected: %v", rank, err)
		}
	}
	_, _, err := g.Sorted(ctx, 0, 5)
	wantViolation(t, err, "unsorted")
}

func TestGuardDetectsDuplicate(t *testing.T) {
	var firstObj int
	g := NewGuard(&lyingBackend{Backend: honest(t),
		sorted: func(pred, rank, obj int, s float64) (int, float64) {
			if rank == 0 {
				firstObj = obj
			}
			if rank == 4 {
				return firstObj, s // replays rank 0's object deeper down
			}
			return obj, s
		}})
	ctx := context.Background()
	for rank := 0; rank < 4; rank++ {
		if _, _, err := g.Sorted(ctx, 0, rank); err != nil {
			t.Fatalf("clean rank %d rejected: %v", rank, err)
		}
	}
	_, _, err := g.Sorted(ctx, 0, 4)
	wantViolation(t, err, "dup")
}

func TestGuardDetectsInconsistentProbe(t *testing.T) {
	g := NewGuard(&lyingBackend{Backend: honest(t),
		random: func(pred, obj int, v float64) float64 {
			return v / 2 // contradicts the sorted sighting
		}})
	ctx := context.Background()
	obj, s, err := g.Sorted(ctx, 0, 0)
	if err != nil {
		t.Fatalf("sorted: %v", err)
	}
	if s == 0 {
		t.Skipf("top score is zero; halving cannot contradict")
	}
	_, err = g.Random(ctx, 0, obj)
	wantViolation(t, err, "inconsistent")
}

func TestGuardRangeViolation(t *testing.T) {
	g := NewGuard(&lyingBackend{Backend: honest(t),
		sorted: func(pred, rank, obj int, s float64) (int, float64) { return obj, 1.5 }})
	_, _, err := g.Sorted(context.Background(), 0, 0)
	wantViolation(t, err, "range")
}

func TestGuardRejectsForeignObject(t *testing.T) {
	g := NewGuard(&lyingBackend{Backend: honest(t),
		sorted: func(pred, rank, obj int, s float64) (int, float64) {
			return 999, s // object outside the 32-object universe
		}})
	_, _, err := g.Sorted(context.Background(), 0, 0)
	wantViolation(t, err, "range")
}

// identityBackend serves n objects it does not hold: every list is the
// identity permutation scored 1 - rank/n.
type identityBackend struct{ n, m int }

func (b identityBackend) N() int { return b.n }
func (b identityBackend) M() int { return b.m }
func (b identityBackend) Sorted(_ context.Context, _, rank int) (int, float64, error) {
	return rank, 1 - float64(rank)/float64(b.n), nil
}
func (b identityBackend) Random(_ context.Context, _, obj int) (float64, error) {
	return 1 - float64(obj)/float64(b.n), nil
}

// TestGuardWitnessSizedByWhatSourcesSaid: the witness costs one object
// index for the universe plus what the sources have actually claimed — not
// four arrays of n per predicate, filled before the first answer is vetted.
func TestGuardWitnessSizedByWhatSourcesSaid(t *testing.T) {
	const n, m = 1_000_000, 3
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGuard(identityBackend{n, m})
	for pred := 0; pred < m; pred++ {
		for rank := 0; rank < 200; rank++ {
			if _, _, err := g.Sorted(ctx, pred, rank); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Random(ctx, (pred+1)%m, n-1-rank); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*n+(1<<20) {
		t.Errorf("vetting %d claims over %d objects allocated %d bytes, want the 4n-byte index and little else", 2*200*m, n, got)
	}
	// The witness still bites across predicates and kinds.
	lying := NewGuard(&lyingBackend{Backend: identityBackend{n, m}, random: func(pred, obj int, v float64) float64 { return v / 2 }})
	if _, _, err := lying.Sorted(ctx, 0, 5); err != nil {
		t.Fatal(err)
	}
	_, err := lying.Random(ctx, 0, 5)
	wantViolation(t, err, "inconsistent")
}
