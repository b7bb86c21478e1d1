package sqlq

import (
	"math"
	"strings"
	"testing"
)

func TestParseExample1(t *testing.T) {
	q, err := Parse("select name from restaurants order by min(rating, closeness) stop after 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select != "name" || q.From != "restaurants" || q.K != 5 {
		t.Errorf("parsed %+v", q)
	}
	if q.Func.Name() != "min" {
		t.Errorf("func = %s", q.Func.Name())
	}
	if len(q.Predicates) != 2 || q.Predicates[0] != "rating" || q.Predicates[1] != "closeness" {
		t.Errorf("predicates = %v", q.Predicates)
	}
}

func TestParseExample2(t *testing.T) {
	q, err := Parse("SELECT name FROM hotels ORDER BY AVG(closeness, rating, cheap) STOP AFTER 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Func.Name() != "avg" || len(q.Predicates) != 3 || q.K != 5 {
		t.Errorf("parsed %+v", q)
	}
	if q.String() != "select name from hotels order by avg(closeness, rating, cheap) stop after 5" {
		t.Errorf("canonical form = %q", q.String())
	}
}

func TestParseWeightedSum(t *testing.T) {
	q, err := Parse("select id from t order by wsum(0.3*a, 0.7*b) stop after 10")
	if err != nil {
		t.Fatal(err)
	}
	got := q.Func.Eval([]float64{1, 0})
	if math.Abs(got-0.3) > 1e-12 {
		t.Errorf("weight binding wrong: F(1,0) = %g", got)
	}
	// The canonical form carries each weight on its predicate, as the
	// grammar takes it — not inside the function name.
	if want := "select id from t order by wsum(0.3*a, 0.7*b) stop after 10"; q.String() != want {
		t.Errorf("canonical form = %q, want %q", q.String(), want)
	}
	// Unweighted args inside wsum default to weight 1.
	q, err = Parse("select id from t order by wsum(a, 2*b) stop after 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Func.Eval([]float64{1, 1}); math.Abs(got-3) > 1e-12 {
		t.Errorf("mixed weights: F(1,1) = %g", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		frag string
	}{
		{"", `expected "select"`},
		{"select from t order by min(a,b) stop after 1", `expected "from"`},
		{"select x t order by min(a,b) stop after 1", `expected "from"`},
		{"select x from t by min(a,b) stop after 1", `expected "order"`},
		{"select x from t order min(a,b) stop after 1", `expected "by"`},
		{"select x from t order by min a,b) stop after 1", `expected "("`},
		{"select x from t order by min() stop after 1", "predicate name"},
		{"select x from t order by min(a,b stop after 1", `expected ")"`},
		{"select x from t order by min(a,b) after 1", `expected "stop"`},
		{"select x from t order by min(a,b) stop 1", `expected "after"`},
		{"select x from t order by min(a,b) stop after", "retrieval size"},
		{"select x from t order by min(a,b) stop after 0", "positive integer"},
		{"select x from t order by min(a,b) stop after -3", "unexpected character"},
		{"select x from t order by min(a,b) stop after 2 garbage", "trailing input"},
		{"select x from t order by harmonic(a,b) stop after 2", "unknown scoring function"},
		{"select x from t order by min(a,a) stop after 2", "duplicate predicate"},
		{"select x from t order by min(0.3*a, b) stop after 2", "only allowed in wsum"},
		{"select x from t order by wsum(0.3*) stop after 2", "predicate name"},
		{"select x from t order by min(a; b) stop after 2", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error %q lacks %q", c.in, err, c.frag)
		}
	}
}

func TestParseArityMismatch(t *testing.T) {
	// wsum's arity comes from its weights; a weighted function bound to a
	// different predicate count must fail via score.Validate. Constructing
	// that through the grammar is impossible (weights align with args), so
	// arity validation is covered by single-arg built-ins instead.
	if _, err := Parse("select x from t order by min(a) stop after 1"); err != nil {
		t.Errorf("single-predicate min should parse: %v", err)
	}
}

func TestBind(t *testing.T) {
	q, err := Parse("select name from restaurants order by min(closeness, rating) stop after 3")
	if err != nil {
		t.Fatal(err)
	}
	cols, err := Bind(q, []string{"rating", "closeness"})
	if err != nil {
		t.Fatal(err)
	}
	// Query order: closeness (column 1) first, then rating (column 0).
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 0 {
		t.Errorf("bind = %v", cols)
	}
	// Case-insensitive.
	if _, err := Bind(q, []string{"Rating", "CLOSENESS"}); err != nil {
		t.Errorf("case-insensitive bind failed: %v", err)
	}
	if _, err := Bind(q, []string{"rating", "price"}); err == nil {
		t.Error("unknown predicate should fail to bind")
	}
}

func TestParseWhitespaceAndUnderscores(t *testing.T) {
	q, err := Parse("  select  obj_id   from my_table order by  geomean( p_1 ,p_2 )  stop   after 7 ")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select != "obj_id" || q.From != "my_table" || q.K != 7 {
		t.Errorf("parsed %+v", q)
	}
	if q.Predicates[0] != "p_1" || q.Predicates[1] != "p_2" {
		t.Errorf("predicates = %v", q.Predicates)
	}
}
