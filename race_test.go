//go:build race

package topk

// raceEnabled reports that this binary was built with the race detector,
// whose sync.Pool drops a random quarter of what is Put: exact allocation
// gates skip, since pooled state then misses at random.
const raceEnabled = true
