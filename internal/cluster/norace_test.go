//go:build !race

package cluster

// raceEnabled reports whether this binary was built with the race
// detector; see race_test.go.
const raceEnabled = false
