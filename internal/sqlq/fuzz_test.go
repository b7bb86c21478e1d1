package sqlq

import (
	"slices"
	"testing"
)

// FuzzParse checks that the parser is total (never panics) and that every
// accepted query round-trips: its canonical String() form must reparse to
// an equivalent query. Run with `go test -fuzz FuzzParse ./internal/sqlq`
// to explore beyond the seed corpus; the seeds alone cover the grammar.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"select name from restaurants order by min(rating, closeness) stop after 5",
		"SELECT name FROM hotels ORDER BY AVG(closeness, rating, cheap) STOP AFTER 5",
		"select id from t order by wsum(0.3*a, 0.7*b) stop after 10",
		"select x from t order by geomean(a) stop after 1",
		"select x from t order by product(a, b, c, d) stop after 99",
		"select x from t order by max(a,b) stop after 2 trailing",
		"select x from t order by min(a,a) stop after 2",
		"select x from t order by wsum(a, 2*b) stop after 1",
		"select x from t order by wsum(0.0000001*a, 100000000000000000000000*b, 0*c) stop after 1",
		"", "select", "select x from", "order by", "(((",
		"select x from t order by min(0.5*a) stop after 1",
		"select x from t order by min(a;b) stop after 1",
		"select x from t order by min(a) stop after 999999999999999999999",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		// Accepted queries satisfy structural invariants.
		if q.K < 1 || len(q.Predicates) == 0 || q.Func == nil {
			t.Fatalf("accepted malformed query: %+v", q)
		}
		for _, p := range q.Predicates {
			if p == "" {
				t.Fatal("empty predicate name accepted")
			}
		}
		// Round trip through the canonical form: it reparses to the same
		// query (a weighted sum's Name spells its weights, so equal names
		// mean equal weights) and is a fixed point of String.
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("canonical form %q does not reparse: %v", q.String(), err)
		}
		if q2.K != q.K || q2.From != q.From || q2.Select != q.Select ||
			q2.Func.Name() != q.Func.Name() || !slices.Equal(q2.Predicates, q.Predicates) {
			t.Fatalf("round trip changed the query: %+v vs %+v", q, q2)
		}
		if q2.String() != q.String() {
			t.Fatalf("canonical form is not a fixed point: %q vs %q", q.String(), q2.String())
		}
	})
}
