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
