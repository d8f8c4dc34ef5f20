//go:build !race

package core

// raceEnabled reports whether the race detector is active; alloc gates
// skip under -race because the detector's instrumentation allocates.
const raceEnabled = false
