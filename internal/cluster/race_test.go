//go:build race

package cluster

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates: allocation gates skip themselves.
const raceEnabled = true
