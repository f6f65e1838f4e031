//go:build !race

package prflow

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
