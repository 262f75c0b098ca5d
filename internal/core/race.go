//go:build race

package core

// raceEnabled reports whether the race detector is built in, in which case
// the span kernel skips its warm loads (see warm).
const raceEnabled = true
