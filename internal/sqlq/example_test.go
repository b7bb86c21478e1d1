package sqlq_test

import (
	"fmt"

	"repro/internal/sqlq"
)

// ExampleParse parses the paper's Query Q1 and binds its predicates to a
// database's column order.
func ExampleParse() {
	q, err := sqlq.Parse(
		"select name from restaurants order by min(rating, closeness) stop after 5")
	if err != nil {
		panic(err)
	}
	fmt.Println("function:", q.Func.Name())
	fmt.Println("k:", q.K)

	cols, err := sqlq.Bind(q, []string{"closeness", "rating"})
	if err != nil {
		panic(err)
	}
	fmt.Println("columns:", cols) // rating is column 1, closeness 0
	// Output:
	// function: min
	// k: 5
	// columns: [1 0]
}
