//go:build race

package transport

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
