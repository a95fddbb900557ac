//go:build race

package stochastic

// raceEnabled lets the single-goroutine statistical tests draw fewer
// samples under the race detector, which has nothing to find in them
// and slows them tenfold.
const raceEnabled = true
