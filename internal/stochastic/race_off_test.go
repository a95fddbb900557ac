//go:build !race

package stochastic

const raceEnabled = false
