package catalog

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
	"repro/internal/store"
)

type slowBackend struct {
	access.Backend // a DatasetBackend, paged entry by entry through Sorted
	sorted, random time.Duration
}

func (b slowBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	time.Sleep(b.sorted)
	return b.Backend.Sorted(ctx, pred, rank)
}

func (b slowBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	time.Sleep(b.random)
	return b.Backend.Random(ctx, pred, obj)
}

func twoSourceCatalog(t *testing.T, ds *data.Dataset) *Catalog {
	t.Helper()
	c := New()
	if err := c.Register(Registration{
		Source: "alpha", PredName: "rating",
		Backend: access.DatasetBackend{DS: ds}, LocalPred: 0,
		Sorted: true, Random: true, SortedCost: 0.2, RandomCost: 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(Registration{
		Source: "beta", PredName: "closeness",
		Backend: access.DatasetBackend{DS: ds}, LocalPred: 1,
		Sorted: true, Random: true, SortedCost: 0.1, RandomCost: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegisterValidation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 20, 2, 1)
	other := datatest.MustGenerate(data.Uniform, 30, 2, 1)
	c := New()
	be := access.DatasetBackend{DS: ds}
	if err := c.Register(Registration{Source: "s", PredName: "p", LocalPred: 0, Sorted: true}); err == nil {
		t.Error("nil backend should fail")
	}
	if err := c.Register(Registration{Source: "s", PredName: "p", Backend: be, LocalPred: 0}); err == nil {
		t.Error("no capability should fail")
	}
	if err := c.Register(Registration{Source: "s", PredName: "p", Backend: be, LocalPred: 5, Sorted: true}); err == nil {
		t.Error("bad local pred should fail")
	}
	if err := c.Register(Registration{Source: "s", PredName: "p", Backend: be, LocalPred: 0, Sorted: true, SortedCost: -1}); err == nil {
		t.Error("negative cost should fail")
	}
	if err := c.Register(Registration{Source: "s", PredName: "p", Backend: be, LocalPred: 0, Sorted: true}); err != nil {
		t.Fatalf("valid registration rejected: %v", err)
	}
	if err := c.Register(Registration{Source: "s2", PredName: "p", Backend: be, LocalPred: 1, Sorted: true}); err == nil {
		t.Error("duplicate predicate name should fail")
	}
	if err := c.Register(Registration{Source: "s3", PredName: "q", Backend: access.DatasetBackend{DS: other}, LocalPred: 0, Sorted: true}); err == nil {
		t.Error("mismatched universe should fail")
	}
}

func TestRoutedBackendAndDeclaredScenario(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 50, 2, 5)
	c := twoSourceCatalog(t, ds)
	if c.M() != 2 {
		t.Fatalf("M = %d", c.M())
	}
	names := c.PredicateNames()
	if names[0] != "rating" || names[1] != "closeness" {
		t.Errorf("names = %v", names)
	}
	be, err := c.Backend()
	if err != nil {
		t.Fatal(err)
	}
	if be.N() != 50 || be.M() != 2 {
		t.Fatalf("backend %dx%d", be.N(), be.M())
	}
	obj, s, err := be.Sorted(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wantObj, wantS := ds.SortedAt(1, 0); obj != wantObj || s != wantS {
		t.Errorf("routing wrong: got u%d(%g)", obj, s)
	}
	if _, _, err := be.Sorted(context.Background(), 9, 0); err == nil {
		t.Error("out-of-range predicate should fail")
	}
	if _, err := be.Random(context.Background(), -1, 0); err == nil {
		t.Error("out-of-range predicate should fail")
	}

	scn, err := c.DeclaredScenario("travel")
	if err != nil {
		t.Fatal(err)
	}
	if scn.Preds[0].Sorted != access.CostOf(0.2) || scn.Preds[1].Random != access.CostOf(0.5) {
		t.Errorf("scenario = %+v", scn.Preds)
	}
	// End to end: the catalog's backend + scenario answer queries.
	sess, err := access.NewSession(be, scn)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := algo.NewProblem(score.Min(), 3, sess)
	if err != nil {
		t.Fatal(err)
	}
	alg, _ := algo.NewNC([]float64{0.5, 0.5}, nil)
	res, err := alg.Run(prob)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ds.TopK(score.Min().Eval, 3)
	for i := range oracle {
		got := score.Min().Eval(ds.Scores(res.Items[i].Obj))
		if math.Abs(got-oracle[i].Score) > 1e-9 {
			t.Fatalf("rank %d wrong", i)
		}
	}
}

func TestDeclaredScenarioRequiresCosts(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 1, 1)
	c := New()
	if err := c.Register(Registration{Source: "s", PredName: "p", Backend: access.DatasetBackend{DS: ds}, LocalPred: 0, Sorted: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeclaredScenario("x"); err == nil {
		t.Error("missing declared cost should fail")
	}
}

func TestCalibrateOrdersLatencies(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 40, 2, 7)
	fast := slowBackend{Backend: access.DatasetBackend{DS: ds}, sorted: time.Millisecond, random: time.Millisecond}
	slow := slowBackend{Backend: access.DatasetBackend{DS: ds}, sorted: 6 * time.Millisecond, random: 12 * time.Millisecond}
	c := New()
	if err := c.Register(Registration{Source: "slow", PredName: "a", Backend: slow, LocalPred: 0, Sorted: true, Random: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(Registration{Source: "fast", PredName: "b", Backend: fast, LocalPred: 1, Sorted: true, Random: true}); err != nil {
		t.Fatal(err)
	}
	scn, _, err := c.CalibrateIO(context.Background(), "measured", store.MeasureOptions{Probes: 3, Batches: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := scn.Validate(2); err != nil {
		t.Fatal(err)
	}
	// Calibrated order must reflect real latencies: slow source's probe is
	// the priciest, fast source the cheapest.
	if !(scn.Preds[0].Random > scn.Preds[0].Sorted) {
		t.Errorf("slow source: random %v should exceed sorted %v", scn.Preds[0].Random, scn.Preds[0].Sorted)
	}
	if !(scn.Preds[0].Sorted > scn.Preds[1].Sorted) {
		t.Errorf("slow sorted %v should exceed fast sorted %v", scn.Preds[0].Sorted, scn.Preds[1].Sorted)
	}
}

func TestCalibrateKeepsDeclaredCosts(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 1, 1)
	c := New()
	if err := c.Register(Registration{
		Source: "s", PredName: "p", Backend: access.DatasetBackend{DS: ds}, LocalPred: 0,
		Sorted: true, SortedCost: 7.5, Random: true,
	}); err != nil {
		t.Fatal(err)
	}
	scn, _, err := c.CalibrateIO(context.Background(), "mixed", store.MeasureOptions{Probes: 2, Batches: 1})
	if err != nil {
		t.Fatal(err)
	}
	if scn.Preds[0].Sorted != access.CostOf(7.5) {
		t.Errorf("declared sorted cost overwritten: %v", scn.Preds[0].Sorted)
	}
	if !scn.Preds[0].RandomOK || scn.Preds[0].Random <= 0 {
		t.Errorf("random cost not calibrated: %+v", scn.Preds[0])
	}
}

func TestEmptyCatalog(t *testing.T) {
	c := New()
	if _, err := c.Backend(); err == nil {
		t.Error("empty backend should fail")
	}
	if _, _, err := c.CalibrateIO(context.Background(), "x", store.MeasureOptions{Probes: 1, Batches: 1}); err == nil {
		t.Error("empty calibrate should fail")
	}
}

// oneAccessType is a source serving one access type: the other fails.
type oneAccessType struct {
	access.Backend // a DatasetBackend, paged entry by entry through Sorted
	sorted         bool
}

func (b oneAccessType) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	if !b.sorted {
		return 0, 0, errors.New("source has no sorted interface")
	}
	return b.Backend.Sorted(ctx, pred, rank)
}

func (b oneAccessType) Random(ctx context.Context, pred, obj int) (float64, error) {
	if b.sorted {
		return 0, errors.New("source has no random interface")
	}
	return b.Backend.Random(ctx, pred, obj)
}

// TestCalibrateIOTimesDeclaredAccessTypes: calibration times only the
// access types a registration declares, so a probe-only or a sorted-only
// source calibrates, its key spelling the half it never timed as 0ms.
func TestCalibrateIOTimesDeclaredAccessTypes(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 32, 1, 5)
	for _, row := range []struct {
		name           string
		sorted, random bool
		key            string // the half never timed
	}{
		{"probe-only", false, true, "io(cs=0ms,"},
		{"sorted-only", true, false, "ms,cr=0ms,warm)"},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := New()
			if err := c.Register(Registration{Source: "s", PredName: "p", Backend: oneAccessType{access.DatasetBackend{DS: ds}, row.sorted},
				Sorted: row.sorted, Random: row.random}); err != nil {
				t.Fatal(err)
			}
			scn, key, err := c.CalibrateIO(context.Background(), "io", store.MeasureOptions{Probes: 8, Batches: 2})
			if err != nil {
				t.Fatal(err)
			}
			p := scn.Preds[0]
			if p.SortedOK != row.sorted || p.RandomOK != row.random || row.sorted && p.Sorted <= 0 || row.random && p.Random <= 0 {
				t.Errorf("priced %+v", p)
			}
			if !strings.Contains(key, row.key) {
				t.Errorf("key %q, want it to contain %q", key, row.key)
			}
		})
	}
}

// predCounter counts accesses per predicate and cache drops.
type predCounter struct {
	access.Backend // a DatasetBackend, paged entry by entry through Sorted
	touched        map[int]int
	drops          int
}

func (b *predCounter) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	b.touched[pred]++
	return b.Backend.Sorted(ctx, pred, rank)
}

func (b *predCounter) Random(ctx context.Context, pred, obj int) (float64, error) {
	b.touched[pred]++
	return b.Backend.Random(ctx, pred, obj)
}

func (b *predCounter) DropCaches() { b.drops++ }

// TestCalibrateIOMeasuresOnePredicate: IO calibration times exactly the
// registered predicate of a multi-predicate source — through a catalog
// view holding that registration alone — and cold mode still reaches the
// source's caches below that view.
func TestCalibrateIOMeasuresOnePredicate(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 64, 3, 9)
	src := &predCounter{Backend: access.DatasetBackend{DS: ds}, touched: map[int]int{}}
	c := New()
	if err := c.Register(Registration{Source: "disk", PredName: "measured", Backend: src, LocalPred: 1, Sorted: true, Random: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(Registration{Source: "disk", PredName: "declared", Backend: src, LocalPred: 2, Sorted: true, SortedCost: 0.3}); err != nil {
		t.Fatal(err)
	}
	scn, key, err := c.CalibrateIO(context.Background(), "io", store.MeasureOptions{Probes: 16, Batches: 3, Seed: 4, Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(src.touched) != 1 || src.touched[1] != 2*3*16 {
		t.Errorf("calibration touched %v, want %d accesses on predicate 1 only", src.touched, 2*3*16)
	}
	if src.drops != 2*3 {
		t.Errorf("cold mode dropped caches %d times, want once per batch (%d)", src.drops, 2*3)
	}
	if p := scn.Preds[0]; !p.SortedOK || !p.RandomOK || p.Sorted <= 0 || p.Random <= 0 {
		t.Errorf("measured predicate priced %+v", p)
	}
	if !strings.HasPrefix(key, "io(cs=") || !strings.HasSuffix(key, ",cold),-") {
		t.Errorf("calibration key %q, want one io(...) clause then \"-\" for the declared predicate", key)
	}
}
