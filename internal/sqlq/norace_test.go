//go:build !race

package sqlq

import "testing"

// TestParseAllocGate pins what Parse allocates: what the Query keeps and
// nothing else. A plain function is the Query and its Predicates (the
// names are substrings of the statement, the function a static value); a
// weighted sum adds its function, one block with its weights inline, and
// its name. Lexing, the parser and the parsed weights stay on the stack.
// (The race detector instruments allocations, so the gate runs in
// ordinary builds only.)
func TestParseAllocGate(t *testing.T) {
	for _, c := range []struct {
		sql  string
		want float64
	}{
		{"select name from db order by wsum(0.201*p1, 0.300*p2, 0.500*p3) stop after 10", 4},
		{"select name from db order by min(p1, p2, p3) stop after 10", 2},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := Parse(c.sql); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs", c.sql, got)
		if got != c.want {
			t.Errorf("Parse(%q) allocates %v, want %v", c.sql, got, c.want)
		}
	}
}
