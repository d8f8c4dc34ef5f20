// Coordinator-resume acceptance: every snapshot the engine's Checkpoint
// hook emits must be a point the run can be resumed from — through the
// on-disk run-state format — with the resumed run equal to the
// uninterrupted reference from that point on, snapshot by snapshot, and in
// its matrix and final state bit for bit. The sweep covers mid-task
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
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
)

// resumeFrom round-trips a snapshot through the run-state disk format and
// runs a fresh in-process engine from it.
func resumeFrom(t *testing.T, method string, family *data.Family, domains []string, snap fl.ResumeState) fltest.Run {
	t.Helper()
	var buf bytes.Buffer
	snap.Method, snap.Seed = method, fltest.Config().Seed
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
	return fltest.Local(t, method, family, domains, fltest.LocalRun{Resume: loaded})
}

// TestResumeBitIdentical resumes from the reference run's snapshots and
// requires each resumed run to be the reference's suffix from its snapshot:
// the same hashes at every later snapshot, the same matrix cell for cell and
// the same final weights and wire state bit for bit.
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
		t.Run(short(method), func(t *testing.T) {
			want := fltest.Reference(t, method, family, domains)
			// 2 tasks x 2 rounds emit (0,1),(0,2),(1,0),(1,1),(1,2),(2,0).
			if len(want.Snapshots) != 6 {
				t.Fatalf("captured %d snapshots, want 6", len(want.Snapshots))
			}
			for _, snap := range want.Snapshots {
				if method != "RefFiL" && !(snap.NextTask == 1 || snap.NextTask == 2 && snap.NextRound == 0) {
					continue // the reffil sweep covers the method-agnostic points
				}
				t.Run(fmt.Sprintf("task%d_round%d", snap.NextTask, snap.NextRound), func(t *testing.T) {
					fltest.RequireSameRun(t, "resumed", want, resumeFrom(t, method, family, domains, snap))
				})
			}
		})
	}
}
