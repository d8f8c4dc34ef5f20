// Package poison is the switch behind the federation runtime's
// buffer-lifetime tests. While it is on, every buffer the runtime keeps for
// reuse is overwritten the moment its contents stop being valid, so that a
// reference kept past that moment reads 0xFF bytes, or NaN as float64,
// instead of silently reading whatever the next use wrote there. Only tests
// turn it on; it is off, and each check one atomic load, in every run.
package poison

import (
	"math"
	"sync/atomic"

	"reffil/internal/tensor"
)

var on atomic.Bool

// Enable turns poisoning on until the returned function is called.
func Enable() (restore func()) {
	on.Store(true)
	return func() { on.Store(false) }
}

// On reports whether poisoning is on.
func On() bool { return on.Load() }

// Bytes overwrites b with 0xFF bytes when poisoning is on.
func Bytes(b []byte) {
	if on.Load() {
		for i := range b {
			b[i] = 0xFF
		}
	}
}

// Tensor fills t with all-ones bits, a NaN, when poisoning is on.
func Tensor(t *tensor.Tensor) {
	if on.Load() {
		t.Fill(math.Float64frombits(^uint64(0)))
	}
}
