package bench

// RaceEnabled exposes raceEnabled to the external test package: the exact
// allocation gate skips under the race detector, whose sync.Pool drops a
// random quarter of what is Put.
const RaceEnabled = raceEnabled
