package tensor

import "math"

// PoisonReclaimed makes every buffer an arena takes back — at Reset or at
// Release — get overwritten with NaN, until the returned function is called.
// A computation that reads a tensor across its reclaim, or reads a Scratch
// result before writing it, then produces NaNs instead of silently reusing
// whatever the buffer last held.
func PoisonReclaimed() (restore func()) {
	poison = func(buf []float64) {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	return func() { poison = nil }
}
