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
	"testing"

	"reffil/internal/checkpoint"
	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/model"
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
func resumeFrom(t *testing.T, method string, family *data.Family, domains []string, snap fl.ResumeState) ([][]float64, fltest.Final) {
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
	return mat.A, fltest.FinalOf(t, alg)
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
					fltest.RequireSameFinal(t, "resumed", want.final, final)
				})
			}
		})
	}
}
