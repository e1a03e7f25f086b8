//go:build !race

package mc

const raceEnabled = false
