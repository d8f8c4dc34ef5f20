// Package lintsmoke deliberately violates the fedvet contracts. It lives
// under testdata so ./... wildcards never build or vet it; scripts/
// lint_smoke.sh points go vet at it by explicit path and asserts that
// fedvet exits nonzero with the expected diagnostics — an end-to-end check
// that the vet-tool protocol wiring actually fails builds, not just that
// the analyzers pass their unit tests.
package lintsmoke

import "reffil/internal/tensor"

// SumDirect trips maporder: a raw range over a tensor map feeding a float
// accumulation.
func SumDirect(m map[string]*tensor.Tensor) float64 {
	s := 0.0
	for _, t := range m {
		s += t.At(0)
	}
	return s
}

// Converged trips floatbits: raw float equality in non-test code.
func Converged(prev, next float64) bool {
	return prev == next
}
