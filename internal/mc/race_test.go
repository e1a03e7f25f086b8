//go:build race

package mc

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
