// Package fltest holds the oracle the engine's and the transport's tests
// share: what a finished run leaves besides its accuracy matrix, and the
// bit-for-bit comparison of two of them. Only tests import it.
package fltest

import (
	"bytes"
	"maps"
	"math"
	"slices"
	"testing"

	"reffil/internal/fl"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// Final is what a finished run leaves besides its matrix: the global state
// dict and, for a method with wire state, the encoded wire state.
type Final struct {
	Global map[string]*tensor.Tensor
	Wire   []byte
}

// FinalOf captures alg's final state.
func FinalOf(t testing.TB, alg fl.Algorithm) Final {
	t.Helper()
	st := Final{Global: nn.StateDict(alg.Global())}
	if ws, ok := alg.(fl.WireStater); ok {
		wire, err := ws.EncodeWireState()
		if err != nil {
			t.Fatal(err)
		}
		st.Wire = wire
	}
	return st
}

// RequireSameFinal requires got to hold the reference's weights bit for
// bit — the same key set both ways, the same shape under each key and every
// element's Float64bits — and the same wire-state bytes, nil only where the
// reference's are nil.
func RequireSameFinal(t testing.TB, label string, want, got Final) {
	t.Helper()
	names := slices.Sorted(maps.Keys(want.Global))
	if gotNames := slices.Sorted(maps.Keys(got.Global)); !slices.Equal(gotNames, names) {
		t.Fatalf("%s global state has keys %q, the reference %q", label, gotNames, names)
	}
	for _, name := range names {
		w, g := want.Global[name], got.Global[name]
		if !g.SameShape(w) {
			t.Fatalf("%s global %q has shape %v, reference %v", label, name, g.Shape(), w.Shape())
		}
		for i, v := range w.Data() {
			if math.Float64bits(g.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("%s global %q[%d] = %v, reference %v", label, name, i, g.Data()[i], v)
			}
		}
	}
	if !bytes.Equal(got.Wire, want.Wire) || (got.Wire == nil) != (want.Wire == nil) {
		t.Fatalf("%s wire state (%d bytes) differs from the reference's (%d bytes)", label, len(got.Wire), len(want.Wire))
	}
}
