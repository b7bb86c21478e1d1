package algo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
	"repro/internal/state"
)

// TestRandomizedAgreementProperty drives every applicable algorithm over
// randomized datasets, scoring functions, retrieval sizes, and capability
// configurations, and checks that all of them agree with the brute-force
// oracle (up to tie permutations). This is the repository's central
// property test: a scheduling bug in any algorithm, or a bound bug in the
// shared state layer, fails here.
func TestRandomizedAgreementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	funcs := []score.Func{score.Min(), score.Avg(), score.Max(), score.Product(), score.Geometric(), score.Median(), score.OrderStatistic(2)}
	dists := []data.Distribution{data.Uniform, data.Gaussian, data.Skewed, data.Correlated, data.AntiCorrelated}

	prop := func(seed int64, fIdx, dIdx, kRaw, mRaw, scnIdx uint8) bool {
		m := int(mRaw%3) + 2 // 2..4
		n := 40
		k := int(kRaw%12) + 1
		f := funcs[int(fIdx)%len(funcs)]
		ds := datatest.MustGenerate(dists[int(dIdx)%len(dists)], n, m, seed)

		type setup struct {
			scn  access.Scenario
			algs []Algorithm
		}
		h := make([]float64, m)
		for i := range h {
			h[i] = float64(int(seed)%7) / 7 // deterministic per-case depth
			if h[i] < 0 {
				h[i] = -h[i]
			}
		}
		nc, err := NewNC(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		setups := []setup{
			{access.Uniform(m, 1, 1), []Algorithm{nc, TA{}, FA{}, CA{}}},
			{access.MatrixCell(m, access.Cheap, access.Impossible, 10), []Algorithm{nc, NRA{}}},
			{access.MatrixCell(m, access.Impossible, access.Expensive, 10), []Algorithm{nc, MPro{}, Upper{}}},
			{access.MatrixCell(m, access.Expensive, access.Cheap, 10), []Algorithm{nc}},
		}
		s := setups[int(scnIdx)%len(setups)]

		oracle := ds.TopK(f.Eval, k)
		want := make([]float64, len(oracle))
		for i, r := range oracle {
			want[i] = r.Score
		}
		sort.Float64s(want)

		for _, alg := range s.algs {
			sess, err := access.NewSession(access.DatasetBackend{DS: ds}, s.scn)
			if err != nil {
				t.Fatal(err)
			}
			prob, err := NewProblem(f, k, sess)
			if err != nil {
				t.Fatal(err)
			}
			res, err := alg.Run(prob)
			if err != nil {
				t.Logf("%s on %s: %v", alg.Name(), s.scn.Name, err)
				return false
			}
			if len(res.Items) != len(oracle) {
				t.Logf("%s: %d items, oracle %d", alg.Name(), len(res.Items), len(oracle))
				return false
			}
			got := make([]float64, len(res.Items))
			seen := make(map[int]bool)
			for i, it := range res.Items {
				if seen[it.Obj] {
					t.Logf("%s: duplicate object %d", alg.Name(), it.Obj)
					return false
				}
				seen[it.Obj] = true
				got[i] = f.Eval(ds.Scores(it.Obj))
			}
			sort.Float64s(got)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Logf("%s seed=%d f=%s k=%d scn=%s: score multiset mismatch", alg.Name(), seed, f.Name(), k, s.scn.Name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestNCTraceSatisfiesTheorem1 replays NC's own traces and verifies that
// at halt the gathered information satisfies Theorem 1's condition — the
// framework never stops early and never relies on information it did not
// pay for.
func TestNCTraceSatisfiesTheorem1(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		ds := datatest.MustGenerate(data.Uniform, 50, 2, seed)
		for _, f := range []score.Func{score.Min(), score.Avg()} {
			for _, h := range [][]float64{{0, 1}, {0.5, 0.5}, {1, 1}} {
				k := int(seed%6) + 1
				alg, err := NewNC(h, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, sess := mustRun(t, alg, ds, access.Uniform(2, 1, 1), f, k, access.WithTrace())
				tab, err := ReplayTrace(ds, f, sess.Trace(), true)
				if err != nil {
					t.Fatalf("seed %d: NC produced an illegal trace: %v", seed, err)
				}
				if _, ok := Sufficient(tab, k); !ok {
					t.Fatalf("seed %d f=%s H=%v k=%d: NC halted without sufficient information", seed, f.Name(), h, k)
				}
			}
		}
	}
}

// TestNCNeverRepeatsOrWastesAccesses inspects NC traces for scheduling
// hygiene: no access may appear twice (sorted accesses are distinct ranks
// by construction; probes are distinct (pred, obj) pairs), and every probe
// must target an object that was in the candidate top-k at probe time —
// approximated here as "was seen before being probed" plus session
// legality, which the session enforces by erroring out.
func TestNCNeverRepeatsOrWastesAccesses(t *testing.T) {
	ds := datatest.MustGenerate(data.Gaussian, 80, 3, 5)
	alg, err := NewNC([]float64{0.4, 0.6, 0.8}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	_, sess := mustRun(t, alg, ds, access.Uniform(3, 1, 2), score.Avg(), 8, access.WithTrace())
	probes := make(map[[2]int]bool)
	seen := make(map[int]bool)
	for _, rec := range sess.Trace() {
		switch rec.Kind {
		case access.SortedAccess:
			seen[rec.Obj] = true
		case access.RandomAccess:
			key := [2]int{rec.Pred, rec.Obj}
			if probes[key] {
				t.Fatalf("repeated probe %v", rec)
			}
			probes[key] = true
			if !seen[rec.Obj] {
				t.Fatalf("probe of unseen object %v", rec)
			}
		}
	}
}

// TestNecessaryChoicesDefinition2 checks the constructed choice sets
// against Definition 2 on the paper's worked Example 8: after
// P = {sa1, sa1, sa2, ra1(u1)}, the unsatisfied task of u3 (paper
// numbering; OID 2 here is complete, so we check u2 = OID 1, whose p2 is
// undetermined) admits exactly sa2 and ra2.
func TestNecessaryChoicesDefinition2(t *testing.T) {
	ds := fig3()
	// Example 7's trace probes a still-unseen object, so it runs without
	// the no-wild-guesses rule (the framework "can generally work with or
	// without", Section 8).
	sess, err := access.NewSession(access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 1), access.WithoutNoWildGuesses())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := state.NewTable(3, 2, score.Min())
	if err != nil {
		t.Fatal(err)
	}
	feed := func(kind access.Kind, pred, obj int) {
		if kind == access.SortedAccess {
			gotObj, s, err := sess.SortedNext(pred)
			if err != nil || gotObj != obj {
				t.Fatalf("setup: sa%d -> u%d (%v), want u%d", pred+1, gotObj, err, obj)
			}
			tab.ObserveSorted(pred, gotObj, s)
			return
		}
		s, err := sess.Random(pred, obj)
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		tab.ObserveRandom(pred, obj, s)
	}
	feed(access.SortedAccess, 0, 2) // u3(.7)
	feed(access.SortedAccess, 0, 1) // u2(.65)
	feed(access.SortedAccess, 1, 2) // u3(.9)
	feed(access.RandomAccess, 0, 0) // ra1(u1)=.6

	// OID 1 (paper's u2): p1 known, p2 undetermined -> {sa2, ra2(u2)}.
	choices := AppendNecessaryChoices(nil, tab, sess, 1)
	if len(choices) != 2 {
		t.Fatalf("choices = %v", choices)
	}
	wantKinds := map[access.Kind]bool{}
	for _, ch := range choices {
		if ch.Pred != 1 {
			t.Fatalf("choice on wrong predicate: %v", ch)
		}
		wantKinds[ch.Kind] = true
	}
	if !wantKinds[access.SortedAccess] || !wantKinds[access.RandomAccess] {
		t.Fatalf("choices = %v, want one sa and one ra on p2", choices)
	}
	// OID 2 (paper's u3) is complete: no choices.
	if got := AppendNecessaryChoices(nil, tab, sess, 2); len(got) != 0 {
		t.Fatalf("complete object has choices: %v", got)
	}
	// The virtual unseen object: sorted accesses on both lists.
	got := AppendNecessaryChoices(nil, tab, sess, state.UnseenID)
	if len(got) != 2 || got[0].Kind != access.SortedAccess || got[1].Kind != access.SortedAccess {
		t.Fatalf("unseen choices = %v", got)
	}
	// Probed predicates are excluded: OID 0's p1 was probed; p2 remains.
	got = AppendNecessaryChoices(nil, tab, sess, 0)
	for _, ch := range got {
		if ch.Pred == 0 && ch.Kind == access.RandomAccess {
			t.Fatalf("probed predicate offered again: %v", got)
		}
	}
}
