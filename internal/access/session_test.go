package access

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/kit"
)

func fig3Dataset() *data.Dataset {
	return datatest.MustNew("fig3", [][]float64{
		{0.6, 0.8},
		{0.65, 0.8},
		{0.7, 0.9},
	})
}

func newTestSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s, err := NewSession(DatasetBackend{DS: fig3Dataset()}, Uniform(2, 1, 1), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCostConversion(t *testing.T) {
	c, err := CostFromUnits(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1_500_000 {
		t.Errorf("CostFromUnits(1.5) = %d", c)
	}
	if c.Units() != 1.5 {
		t.Errorf("Units = %g", c.Units())
	}
	if c.String() != "1.500" {
		t.Errorf("String = %q", c.String())
	}
	if _, err := CostFromUnits(-1); err == nil {
		t.Error("negative cost should be rejected")
	}
	if _, err := CostFromUnits(math.NaN()); err == nil {
		t.Error("NaN cost should be rejected")
	}
	if CostOf(2) != 2*UnitCost {
		t.Errorf("CostOf(2) = %d", CostOf(2))
	}
	if CostOf(-1) >= 0 {
		t.Error("CostOf of an invalid value must be a negative sentinel")
	}
	scn := Uniform(2, -1, 1)
	if err := scn.Validate(2); err == nil {
		t.Error("scenario built from invalid units must fail validation")
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := Uniform(2, 1, 10).Validate(2); err != nil {
		t.Errorf("uniform: %v", err)
	}
	if err := Uniform(2, 1, 1).Validate(3); err == nil {
		t.Error("arity mismatch should fail")
	}
	bad := Scenario{Name: "none", Preds: []PredCost{{}}}
	if err := bad.Validate(1); err == nil {
		t.Error("no-capability predicate should fail")
	}
	probeOnly := Scenario{Name: "probe", Preds: []PredCost{
		{Random: UnitCost, RandomOK: true},
	}}
	if err := probeOnly.Validate(1); err == nil {
		t.Error("scenario with no sorted capability anywhere should fail")
	}
}

func TestMatrixCell(t *testing.T) {
	s := MatrixCell(2, Cheap, Expensive, 10)
	for i, pc := range s.Preds {
		if !pc.SortedOK || pc.Sorted != UnitCost {
			t.Errorf("pred %d sorted = %+v", i, pc)
		}
		if !pc.RandomOK || pc.Random != 10*UnitCost {
			t.Errorf("pred %d random = %+v", i, pc)
		}
	}
	s = MatrixCell(3, Impossible, Cheap, 10)
	if !s.Preds[0].SortedOK {
		t.Error("sa-impossible cell must keep a retrieval predicate")
	}
	if s.Preds[1].SortedOK || s.Preds[2].SortedOK {
		t.Error("non-retrieval predicates must be probe-only")
	}
	if err := s.Validate(3); err != nil {
		t.Errorf("sa-impossible cell should validate: %v", err)
	}
	s = MatrixCell(2, Cheap, Impossible, 10)
	if s.Preds[0].RandomOK || s.Preds[1].RandomOK {
		t.Error("ra-impossible cell must forbid probes")
	}
}

func TestSortedNextWalksListAndCounts(t *testing.T) {
	s := newTestSession(t, WithTrace())
	want := []struct {
		obj int
		sc  float64
	}{{2, 0.7}, {1, 0.65}, {0, 0.6}}
	for r, w := range want {
		obj, sc, err := s.SortedNext(0)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if obj != w.obj || sc != w.sc {
			t.Fatalf("rank %d: got u%d(%g), want u%d(%g)", r, obj, sc, w.obj, w.sc)
		}
	}
	if _, _, err := s.SortedNext(0); !errors.Is(err, ErrExhausted) {
		t.Errorf("exhausted list: err = %v", err)
	}
	l := s.Ledger()
	if l.SortedCounts[0] != 3 || l.SortedCounts[1] != 0 {
		t.Errorf("sorted counts = %v", l.SortedCounts)
	}
	if l.TotalCost != 3*UnitCost {
		t.Errorf("total cost = %v", l.TotalCost)
	}
	if l.TotalAccesses() != 3 {
		t.Errorf("total accesses = %d", l.TotalAccesses())
	}
	if len(s.Trace()) != 3 || s.Trace()[0].String() != "sa1->u2(0.70)" {
		t.Errorf("trace = %v", s.Trace())
	}
}

// countingBackend counts the sorted entries it serves the way the store,
// the sharing layer and the coordinator do: the entry each page was for
// when it serves the page, the read-ahead a reader consumed when the reader
// reports it.
type countingBackend struct {
	DatasetBackend
	served []int
}

func (b *countingBackend) Page(ctx context.Context, pred, from int, buf []Entry) (int, error) {
	n, err := b.DatasetBackend.Page(ctx, pred, from, buf)
	if err == nil {
		b.served[pred]++
	}
	return n, err
}

func (b *countingBackend) Consumed(pred, n int) { b.served[pred] += n }

// TestReadAheadCountsOnlyRise: a counting backend under a session's
// windows sees its counts rise and never fall as the run reads through and
// across windows, never count past what the session billed, and match it
// once the run ends — on every run a reset session serves.
func TestReadAheadCountsOnlyRise(t *testing.T) {
	b := &countingBackend{DatasetBackend: DatasetBackend{DS: datatest.MustGenerate(data.Uniform, 150, 2, 7)}, served: make([]int, 2)}
	s, err := NewSession(b, Uniform(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for run, depth := range []int{150, 70, 3} {
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		base := append([]int(nil), b.served...)
		for r := 0; r < depth; r++ {
			for pred := range 2 {
				prev := b.served[pred]
				if _, _, err := s.SortedNext(pred); err != nil {
					t.Fatalf("run %d p%d rank %d: %v", run, pred+1, r, err)
				}
				got, billed := b.served[pred]-base[pred], s.Ledger().SortedCounts[pred]
				if b.served[pred] < prev || got > billed {
					t.Fatalf("run %d p%d rank %d: count went %d -> %d, %d billed", run, pred+1, r, prev-base[pred], got, billed)
				}
			}
		}
		s.Bind(nil)
		for pred := range 2 {
			if got := b.served[pred] - base[pred]; got != depth {
				t.Errorf("run %d p%d: %d entries counted after the run, %d billed", run, pred+1, got, depth)
			}
		}
	}
}

func TestRandomLegality(t *testing.T) {
	s := newTestSession(t)
	// Wild guess forbidden before any sorted access.
	if _, err := s.Random(1, 2); !errors.Is(err, ErrWildGuess) {
		t.Fatalf("expected wild-guess error, got %v", err)
	}
	if _, _, err := s.SortedNext(0); err != nil { // sees u2
		t.Fatal(err)
	}
	sc, err := s.Random(1, 2)
	if err != nil || sc != 0.9 {
		t.Fatalf("ra2(u2) = %g, %v", sc, err)
	}
	if _, err := s.Random(1, 2); !errors.Is(err, ErrRepeatedProbe) {
		t.Fatalf("expected repeated-probe error, got %v", err)
	}
	if !s.Probed(1, 2) || s.Probed(0, 2) {
		t.Error("Probed bookkeeping wrong")
	}
}

func TestWithoutNoWildGuesses(t *testing.T) {
	s := newTestSession(t, WithoutNoWildGuesses())
	if s.NoWildGuesses() {
		t.Fatal("NWG should be off")
	}
	sc, err := s.Random(0, 1)
	if err != nil || sc != 0.65 {
		t.Fatalf("wild probe = %g, %v", sc, err)
	}
}

func TestUnsupportedAccess(t *testing.T) {
	scn := Scenario{Name: "mixed", Preds: []PredCost{
		{Sorted: UnitCost, SortedOK: true},                                    // sorted only
		{Sorted: UnitCost, SortedOK: true, Random: UnitCost, RandomOK: false}, // sorted only
	}}
	s, err := NewSession(DatasetBackend{DS: fig3Dataset()}, scn)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SortedNext(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Random(0, 2); !errors.Is(err, ErrRandomUnsupported) {
		t.Errorf("expected unsupported error, got %v", err)
	}
}

func TestSeenTracking(t *testing.T) {
	s := newTestSession(t)
	if s.SeenCount() != 0 || s.Seen(2) {
		t.Fatal("nothing seen initially")
	}
	s.SortedNext(0) // u2
	s.SortedNext(1) // u2 again via p2
	if s.SeenCount() != 1 || !s.Seen(2) {
		t.Errorf("seen count = %d", s.SeenCount())
	}
	s.SortedNext(0) // u1
	if s.SeenCount() != 2 {
		t.Errorf("seen count = %d", s.SeenCount())
	}
	if s.SortedDepth(0) != 2 || s.SortedDepth(1) != 1 {
		t.Errorf("depths = %d, %d", s.SortedDepth(0), s.SortedDepth(1))
	}
}

func TestCostAccrualMixedScenario(t *testing.T) {
	scn := Scenario{Name: "ex1", Preds: []PredCost{
		{Sorted: CostOf(0.2), SortedOK: true, Random: CostOf(1.0), RandomOK: true},
		{Sorted: CostOf(0.1), SortedOK: true, Random: CostOf(0.5), RandomOK: true},
	}}
	s, err := NewSession(DatasetBackend{DS: fig3Dataset()}, scn)
	if err != nil {
		t.Fatal(err)
	}
	s.SortedNext(0)
	s.SortedNext(1)
	s.Random(1, 2)
	want := CostOf(0.2) + CostOf(0.1) + CostOf(0.5)
	if got := s.Ledger().TotalCost; got != want {
		t.Errorf("total cost = %v, want %v", got, want)
	}
	if math.Abs(s.Ledger().TotalCost.Units()-0.8) > 1e-9 {
		t.Errorf("units = %g", s.Ledger().TotalCost.Units())
	}
}

func TestCostShift(t *testing.T) {
	s := newTestSession(t, WithShifts(CostShift{AfterAccesses: 2, Pred: 0, SortedFactor: 10, RandomFactor: 10}))
	s.SortedNext(0) // cost 1
	s.SortedNext(0) // cost 1; shift applies before the *next* access
	if s.Costs(0).Sorted != UnitCost {
		t.Fatalf("shift applied too early")
	}
	s.SortedNext(0) // cost 10
	if s.Costs(0).Sorted != 10*UnitCost {
		t.Fatalf("shift not applied: %v", s.Costs(0).Sorted)
	}
	if got := s.Ledger().TotalCost; got != 12*UnitCost {
		t.Errorf("total = %v, want 12", got)
	}
	// Unshifted predicate unaffected.
	if s.Costs(1).Sorted != UnitCost {
		t.Error("shift leaked to other predicate")
	}
}

func TestOutOfRangeArguments(t *testing.T) {
	s := newTestSession(t)
	if _, _, err := s.SortedNext(5); err == nil {
		t.Error("bad predicate should fail")
	}
	if _, err := s.Random(0, 99); err == nil {
		t.Error("bad object should fail")
	}
	if _, err := s.Random(-1, 0); err == nil {
		t.Error("negative predicate should fail")
	}
}

func TestKindString(t *testing.T) {
	if SortedAccess.String() != "sa" || RandomAccess.String() != "ra" {
		t.Error("Kind.String mismatch")
	}
	r := Record{Kind: RandomAccess, Pred: 1, Obj: 3, Score: 0.7}
	if r.String() != "ra2(u3)=0.70" {
		t.Errorf("record string = %q", r.String())
	}
	if Cheap.String() != "cheap" || Expensive.String() != "expensive" || Impossible.String() != "impossible" {
		t.Error("Capability.String mismatch")
	}
}

// TestTraceCostsSumToLedger: the per-record costs in a trace must always
// sum to the ledger total, including across dynamic cost shifts.
func TestTraceCostsSumToLedger(t *testing.T) {
	s := newTestSession(t, WithTrace(),
		WithShifts(CostShift{AfterAccesses: 2, Pred: 1, SortedFactor: 7, RandomFactor: 3}))
	s.SortedNext(0)
	s.SortedNext(1)
	s.SortedNext(1) // shifted
	obj := 0
	for u := 0; u < s.N(); u++ {
		if s.Seen(u) {
			obj = u
			break
		}
	}
	s.Random(1, obj) // shifted random
	var sum Cost
	for _, rec := range s.Trace() {
		sum += rec.Cost
	}
	if sum != s.Ledger().TotalCost {
		t.Errorf("trace sum %v != ledger %v", sum, s.Ledger().TotalCost)
	}
}

func TestWithContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := newTestSession(t, WithContext(ctx))
	if _, _, err := s.SortedNext(0); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	if _, _, err := s.SortedNext(0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sorted access: err = %v, want context.Canceled", err)
	}
	if _, err := s.Random(0, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled random access: err = %v, want context.Canceled", err)
	}
	// Nothing is charged for a refused access.
	if got := s.Ledger().TotalCost; got != UnitCost {
		t.Errorf("ledger after cancellation = %v, want %v", got, UnitCost)
	}
}

// strayBackend answers one rank of one list with an object id outside the
// universe, as a remote shard or a caller's own Backend is free to do.
type strayBackend struct {
	Backend         // a DatasetBackend, paged entry by entry through Sorted
	pred, rank, obj int
}

func (b strayBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	obj, s, err := b.Backend.Sorted(ctx, pred, rank)
	if pred == b.pred && rank == b.rank {
		obj = b.obj
	}
	return obj, s, err
}

// TestSortedObjectOutsideUniverse: an object id the backend made up is a
// broken contract, refused before the ledger moves — not an index into the
// session's own state. Without resilience the refusal is terminal; with it
// the failure lands on the capability's breaker like any other.
func TestSortedObjectOutsideUniverse(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 3)
	for _, stray := range []int{ds.N(), ds.N() + 7, -1, math.MinInt32} {
		for _, resilient := range []bool{false, true} {
			var opts []Option
			if resilient {
				opts = append(opts, WithResilience(&Resilience{Breakers: NewBreakerSet(2, BreakerConfig{})}))
			}
			s, err := NewSession(strayBackend{DatasetBackend{DS: ds}, 0, 2, stray}, Uniform(2, 1, 1), opts...)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 2; r++ {
				if _, _, err := s.SortedNext(0); err != nil {
					t.Fatal(err)
				}
			}
			before := s.Ledger()
			_, _, err = s.SortedNext(0)
			var cve *ContractViolationError
			if !errors.As(err, &cve) || cve.Reason != "range" || cve.Kind != SortedAccess || cve.Pred != 0 {
				t.Fatalf("stray object %d (resilient=%v): got %v, want a range contract violation on sa1", stray, resilient, err)
			}
			if errors.Is(err, ErrAccessFailed) != resilient {
				t.Errorf("stray object %d (resilient=%v): ErrAccessFailed wrap = %v", stray, resilient, !resilient)
			}
			after := s.Ledger()
			if after.TotalCost != before.TotalCost || after.TotalAccesses() != before.TotalAccesses() ||
				s.SortedDepth(0) != 2 || s.SeenCount() != 2 {
				t.Errorf("stray object %d (resilient=%v): refused access moved the ledger: %+v -> %+v, depth %d, seen %d",
					stray, resilient, before, after, s.SortedDepth(0), s.SeenCount())
			}
			// The list's other entries are still there to be had.
			if _, _, err := s.SortedNext(1); err != nil {
				t.Errorf("stray object %d (resilient=%v): the honest list stopped serving: %v", stray, resilient, err)
			}
		}
	}
}

// TestSessionMatchesDenseReference drives random access sequences, across
// Resets and both wild-guess modes, through a session and through the
// dense probed/seen arrays it kept before the object index, comparing
// every per-object answer and every legality verdict.
func TestSessionMatchesDenseReference(t *testing.T) {
	for _, n := range []int{1, 9, kit.MinSlots + 50} {
		m := 3
		ds := datatest.MustGenerate(data.Uniform, n, m, int64(n))
		s, err := NewSession(DatasetBackend{DS: ds}, Uniform(m, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n) + 1))
		nwg := true
		probed := make([][]bool, m)
		for i := range probed {
			probed[i] = make([]bool, n)
		}
		seen := make([]bool, n)
		nseen := 0
		for step := 0; step < 6000; step++ {
			i, u := rng.Intn(m), rng.Intn(n)
			switch op := rng.Intn(100); {
			case op < 45:
				obj, _, err := s.SortedNext(i)
				if errors.Is(err, ErrExhausted) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if !seen[obj] {
					seen[obj] = true
					nseen++
				}
			case op < 98:
				_, err := s.Random(i, u)
				switch {
				case nwg && !seen[u]:
					if !errors.Is(err, ErrWildGuess) {
						t.Fatalf("n=%d step %d: ra%d(u%d) on an unseen object returned %v", n, step, i+1, u, err)
					}
				case probed[i][u]:
					if !errors.Is(err, ErrRepeatedProbe) {
						t.Fatalf("n=%d step %d: repeated ra%d(u%d) returned %v", n, step, i+1, u, err)
					}
				case err != nil:
					t.Fatalf("n=%d step %d: legal ra%d(u%d) refused: %v", n, step, i+1, u, err)
				default:
					probed[i][u] = true
				}
			default:
				nwg = rng.Intn(2) == 0
				var opts []Option
				if !nwg {
					opts = append(opts, WithoutNoWildGuesses())
				}
				if err := s.Reset(opts...); err != nil {
					t.Fatal(err)
				}
				for i := range probed {
					clear(probed[i])
				}
				clear(seen)
				nseen = 0
			}
			if s.SeenCount() != nseen {
				t.Fatalf("n=%d step %d: SeenCount = %d, dense reference says %d", n, step, s.SeenCount(), nseen)
			}
			for _, v := range []int{u, rng.Intn(n)} {
				if s.Seen(v) != seen[v] {
					t.Fatalf("n=%d step %d: Seen(u%d) = %v, dense reference says %v", n, step, v, s.Seen(v), seen[v])
				}
				for j := 0; j < m; j++ {
					if s.Probed(j, v) != probed[j][v] {
						t.Fatalf("n=%d step %d: Probed(p%d, u%d) = %v, dense reference says %v", n, step, j+1, v, s.Probed(j, v), probed[j][v])
					}
				}
			}
		}
		// Walk one list to its end, so the largest universe outgrows the
		// slots a session starts with, probing every object as it surfaces.
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			obj, _, err := s.SortedNext(0)
			if err != nil {
				t.Fatal(err)
			}
			if s.Probed(1, obj) || !s.Seen(obj) || s.SeenCount() != r+1 {
				t.Fatalf("n=%d rank %d: u%d reads probed=%v seen=%v of %d seen", n, r, obj, s.Probed(1, obj), s.Seen(obj), s.SeenCount())
			}
			if _, err := s.Random(1, obj); err != nil {
				t.Fatal(err)
			}
		}
		for u := 0; u < n; u++ {
			if !s.Seen(u) || !s.Probed(1, u) || s.Probed(0, u) || s.Probed(2, u) {
				t.Fatalf("n=%d: after the full walk u%d reads seen=%v probed=%v,%v,%v", n, u, s.Seen(u), s.Probed(0, u), s.Probed(1, u), s.Probed(2, u))
			}
		}
	}
}
