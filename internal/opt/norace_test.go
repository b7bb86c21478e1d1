//go:build !race

package opt

// raceEnabled reports whether this binary was built with the race
// detector; see race_test.go.
const raceEnabled = false
