package fl

import (
	"errors"
	"strings"
	"testing"

	"reffil/internal/data"
)

// TestCheckpointPositions pins the checkpoint cadence: the hook fires
// after every installed round and after every completed task's evaluation,
// carrying the exact resume position the next execution step would run
// from — with 2 tasks x 2 rounds, the six points (0,1),(0,2),(1,0),(1,1),
// (1,2),(2,0), ending on the finished-run marker. Each snapshot must carry
// the global dict and exactly the accuracy rows recorded by then.
func TestCheckpointPositions(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWithRunner(smallConfig(), newFakeAlg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]int
	eng.Checkpoint = func(st ResumeState) error {
		got = append(got, [2]int{st.NextTask, st.NextRound})
		if st.Global == nil {
			t.Errorf("snapshot (%d,%d) has no global dict", st.NextTask, st.NextRound)
		}
		if st.HasPayload {
			t.Errorf("snapshot (%d,%d) claims a wire payload for a method without wire state", st.NextTask, st.NextRound)
		}
		// The first task's row is recorded from the (1,0) snapshot on.
		if st.NextTask >= 1 && (len(st.Matrix) < 1 || len(st.Matrix[0]) < 1) {
			t.Errorf("snapshot (%d,%d) is missing recorded accuracy rows", st.NextTask, st.NextRound)
		}
		return nil
	}
	if _, err := eng.Run(family, family.Domains[:2]); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0}}
	if len(got) != len(want) {
		t.Fatalf("checkpoint positions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoint positions = %v, want %v", got, want)
		}
	}
}

// TestCheckpointGlobalIsTheLiveModel pins what the hook's snapshot holds:
// its Global is the model's own tensors, one per parameter and buffer, not
// a copy — the coordinator copies no model to checkpoint a round, and a
// hook keeps the snapshot valid only during the call.
func TestCheckpointGlobalIsTheLiveModel(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	alg := newFakeAlg()
	eng, err := NewEngineWithRunner(smallConfig(), alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshots := 0
	eng.Checkpoint = func(st ResumeState) error {
		snapshots++
		m := alg.Global()
		for _, p := range m.Params() {
			if st.Global[p.Name] != p.Value.T {
				t.Errorf("snapshot (%d,%d): parameter %s is not the model's tensor", st.NextTask, st.NextRound, p.Name)
			}
		}
		for _, b := range m.Buffers() {
			if st.Global[b.Name] != b.T {
				t.Errorf("snapshot (%d,%d): buffer %s is not the model's tensor", st.NextTask, st.NextRound, b.Name)
			}
		}
		if want := len(m.Params()) + len(m.Buffers()); len(st.Global) != want {
			t.Errorf("snapshot (%d,%d) holds %d tensors, want %d", st.NextTask, st.NextRound, len(st.Global), want)
		}
		return nil
	}
	if _, err := eng.Run(family, family.Domains[:2]); err != nil {
		t.Fatal(err)
	}
	if snapshots == 0 {
		t.Fatal("the hook saw no snapshot")
	}
}

// TestCheckpointErrorAborts: a failing checkpoint hook must abort the run
// (a coordinator that cannot persist its promise to resume must not run
// past it) with the position in the error.
func TestCheckpointErrorAborts(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWithRunner(smallConfig(), newFakeAlg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	eng.Checkpoint = func(st ResumeState) error {
		if st.NextTask == 0 && st.NextRound == 2 {
			return boom
		}
		return nil
	}
	_, err = eng.Run(family, family.Domains[:2])
	if !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the checkpoint error", err)
	}
	if !strings.Contains(err.Error(), "checkpoint at task 0 round 2") {
		t.Fatalf("error %q does not carry the checkpoint position", err)
	}
}

// TestResumeValidation bounds the resume position against the run shape.
func TestResumeValidation(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ task, round int }{
		{-1, 0}, // negative task
		{3, 0},  // past the final-run marker (2 tasks)
		{0, 3},  // round past the per-task count (2 rounds)
		{2, 1},  // finished-run marker must sit at round 0
		{0, -1}, // negative round
	}
	for _, tc := range cases {
		eng, err := NewEngineWithRunner(smallConfig(), newFakeAlg(), nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Resume = &ResumeState{NextTask: tc.task, NextRound: tc.round}
		if _, err := eng.Run(family, family.Domains[:2]); err == nil {
			t.Fatalf("resume position (%d,%d) accepted, want rejection", tc.task, tc.round)
		}
	}
}
