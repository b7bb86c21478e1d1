//go:build race

package opt

// raceEnabled reports that this binary was built with the race detector,
// whose sync.Pool drops a random quarter of what is Put: allocation gates
// on pooled state skip.
const raceEnabled = true
