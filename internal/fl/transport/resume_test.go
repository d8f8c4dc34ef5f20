// Coordinator-resume acceptance: every snapshot the engine's Checkpoint
// hook emits must be a point the run can be resumed from — through the
// on-disk run-state format — with the resumed run's accuracy matrix equal
// to the uninterrupted reference bit for bit. The sweep covers mid-task
// snapshots (rounds pending), rounds-complete snapshots (task-end hooks
// and evaluation pending), task boundaries, and the finished-run marker,
// for methods with wire state that must round-trip (RefFiL's prompt bank,
// EWC's Fisher/anchors, LwF's teacher) and one without.
package transport_test

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"reffil/internal/checkpoint"
	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// captureSnapshots runs the method on the in-process runner, collecting
// every checkpoint the engine emits.
func captureSnapshots(t *testing.T, method string, family *data.Family, domains []string) []fl.ResumeState {
	t.Helper()
	alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []fl.ResumeState
	eng.Checkpoint = func(st fl.ResumeState) error {
		snaps = append(snaps, st)
		return nil
	}
	if _, err := eng.Run(family, domains); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// resumeFrom round-trips a snapshot through the run-state disk format and
// runs a fresh engine from it, returning the completed matrix and the final
// weights and wire state.
func resumeFrom(t *testing.T, method string, family *data.Family, domains []string, snap fl.ResumeState) ([][]float64, finalState) {
	t.Helper()
	var buf bytes.Buffer
	snap.Method, snap.Seed = method, crossRunnerConfig().Seed
	if err := checkpoint.SaveRunState(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.LoadRunState(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Method != method || loaded.Seed != snap.Seed {
		t.Fatalf("run-state header round-trip: got (%s,%d), want (%s,%d)", loaded.Method, loaded.Seed, method, snap.Seed)
	}
	alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Resume = loaded
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatalf("resume from (%d,%d) failed: %v", snap.NextTask, snap.NextRound, err)
	}
	return mat.A, finalOf(t, alg)
}

// finalState is what a finished run leaves besides its matrix: the global
// state dict and, for a method with wire state, the encoded wire state.
type finalState struct {
	global map[string]*tensor.Tensor
	wire   []byte
}

// finalOf captures alg's final state.
func finalOf(t *testing.T, alg fl.Algorithm) finalState {
	t.Helper()
	st := finalState{global: nn.StateDict(alg.Global())}
	if ws, ok := alg.(fl.WireStater); ok {
		wire, err := ws.EncodeWireState()
		if err != nil {
			t.Fatal(err)
		}
		st.wire = wire
	}
	return st
}

// requireSameFinal requires got to hold the reference's weights bit for bit —
// the same key set both ways and every element's Float64bits — and the same
// wire-state bytes.
func requireSameFinal(t *testing.T, label string, want, got finalState) {
	t.Helper()
	for name := range got.global {
		if _, ok := want.global[name]; !ok {
			t.Fatalf("%s global state has key %q the reference lacks", label, name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(want.global)) {
		w := want.global[name]
		g, ok := got.global[name]
		if !ok {
			t.Fatalf("%s global state lacks key %q", label, name)
		}
		if !g.SameShape(w) {
			t.Fatalf("%s global %q has shape %v, reference %v", label, name, g.Shape(), w.Shape())
		}
		for i, v := range w.Data() {
			if math.Float64bits(g.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("%s global %q[%d] = %v, reference %v", label, name, i, g.Data()[i], v)
			}
		}
	}
	if !bytes.Equal(got.wire, want.wire) || (got.wire == nil) != (want.wire == nil) {
		t.Fatalf("%s wire state (%d bytes) differs from the reference's (%d bytes)", label, len(got.wire), len(want.wire))
	}
}

// TestResumeBitIdentical resumes from checkpoints and requires the
// completed matrix to equal the uninterrupted run's, cell for cell, and the
// final weights and wire state to equal its bit for bit.
// RefFiL sweeps every snapshot the run emits (with 2 tasks x 2 rounds:
// both mid-task points, both rounds-complete points, the task boundary and
// the finished-run marker); the other methods pin the wire-state-heavy
// points around the task transition.
func TestResumeBitIdentical(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]

	methods := []string{"RefFiL", "FedEWC", "FedLwF", "Finetune"}
	if testing.Short() {
		methods = []string{"RefFiL"}
	}
	for _, method := range methods {
		method := method
		t.Run(short(method), func(t *testing.T) {
			want := localRunOf(t, method, family, domains)
			snaps := captureSnapshots(t, method, family, domains)
			// 2 tasks x 2 rounds emit (0,1),(0,2),(1,0),(1,1),(1,2),(2,0).
			if len(snaps) != 6 {
				t.Fatalf("captured %d snapshots, want 6", len(snaps))
			}
			for _, snap := range snaps {
				snap := snap
				if method != "RefFiL" && !(snap.NextTask == 1 || snap.NextTask == 2 && snap.NextRound == 0) {
					continue // the reffil sweep covers the method-agnostic points
				}
				t.Run(fmt.Sprintf("task%d_round%d", snap.NextTask, snap.NextRound), func(t *testing.T) {
					got, final := resumeFrom(t, method, family, domains, snap)
					requireSameMatrix(t, "resumed", want.A, got)
					requireSameFinal(t, "resumed", want.final, final)
				})
			}
		})
	}
}
