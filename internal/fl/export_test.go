package fl

import (
	"reffil/internal/data"
	"reffil/internal/tensor"
)

// RaceEnabled exposes raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

// Evaluate exposes evaluate, which Run calls with the run's one evaluation
// arena, to the package's external tests.
func (e *Engine) Evaluate(arena *tensor.Arena, ds *data.Dataset) (float64, error) {
	return e.evaluate(arena, ds)
}

// PoisonReleasedReplicas makes every LocalRunner fill a released replica's
// parameters and buffers with NaN bits before it re-enters the pool, until
// the returned function is called. A result dict read after its Release
// then reads NaN instead of weights a later job copied or trained there.
func PoisonReleasedReplicas() (restore func()) {
	poisonReleased.Store(true)
	return func() { poisonReleased.Store(false) }
}
