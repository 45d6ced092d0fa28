//go:build race

package search

// raceEnabled reports whether the race detector is on. Its runtime
// allocates now and then on its own account, so the per-iteration
// allocation bounds only hold without it.
const raceEnabled = true
