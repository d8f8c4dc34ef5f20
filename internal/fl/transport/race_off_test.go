//go:build !race

package transport

// raceEnabled reports whether the race detector instruments this build.
// The allocation gates are calibrated for uninstrumented builds — the race
// runtime adds its own per-call allocations.
const raceEnabled = false
