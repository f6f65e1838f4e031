//go:build race

package pregel

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
