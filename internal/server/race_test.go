//go:build race

package server

// raceEnabled reports whether the race detector is on: its runtime
// allocates on its own account, so allocation guards check no bound then.
const raceEnabled = true
