package fl

import (
	"reffil/internal/data"
	"reffil/internal/fl/internal/poison"
	"reffil/internal/tensor"
)

// RaceEnabled exposes raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

// Evaluate exposes evaluate, which Run calls with the run's one evaluation
// arena, to the package's external tests.
func (e *Engine) Evaluate(arena *tensor.Arena, ds *data.Dataset) (float64, error) {
	return e.evaluate(arena, ds)
}

// PoisonReleasedReplicas turns the runtime's buffer poisoning on (see
// package poison) until the returned function is called: every LocalRunner
// fills a released replica's parameters and buffers with NaN bits before it
// re-enters the pool, and every Accumulator its kept sums at Reset. A
// result dict read after its Release, or an aggregate read after the next
// round began, then reads NaN instead of what a later job or fold wrote
// there.
func PoisonReleasedReplicas() (restore func()) {
	return poison.Enable()
}
