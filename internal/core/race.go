//go:build race

package core

// raceEnabled reports whether the race detector is built in, in which case
// the span kernel skips its prefetch pipeline (see prefetcher.ahead).
const raceEnabled = true
