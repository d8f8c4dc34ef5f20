package checkpoint

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func sampleRunState(rng *rand.Rand) *RunState {
	return &RunState{
		Method:    "reffil",
		Seed:      -7,
		NextTask:  1,
		NextRound: 2,
		// Unevaluated cells are NaN — the round trip must preserve them
		// (and every other bit pattern) exactly.
		Matrix: [][]float64{
			{0.5, math.NaN(), math.NaN()},
			{0.25, 0.75, math.NaN()},
			{},
		},
		Global:     sampleDict(rng),
		Payload:    []byte{0x00, 0xff, 0x10, 0x20},
		HasPayload: true,
	}
}

// sameFloat compares bit patterns, so NaN == NaN and 0 != -0.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestRunStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rs := sampleRunState(rng)
	var buf bytes.Buffer
	if err := SaveRunState(&buf, rs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != rs.Method || got.Seed != rs.Seed {
		t.Fatalf("header round trip: got (%s,%d), want (%s,%d)", got.Method, got.Seed, rs.Method, rs.Seed)
	}
	if got.NextTask != rs.NextTask || got.NextRound != rs.NextRound {
		t.Fatalf("position round trip: got (%d,%d), want (%d,%d)", got.NextTask, got.NextRound, rs.NextTask, rs.NextRound)
	}
	if len(got.Matrix) != len(rs.Matrix) {
		t.Fatalf("matrix rows = %d, want %d", len(got.Matrix), len(rs.Matrix))
	}
	for i, row := range rs.Matrix {
		if len(got.Matrix[i]) != len(row) {
			t.Fatalf("matrix row %d has %d cells, want %d", i, len(got.Matrix[i]), len(row))
		}
		for j, v := range row {
			if !sameFloat(got.Matrix[i][j], v) {
				t.Fatalf("matrix cell (%d,%d) = %v, want %v", i, j, got.Matrix[i][j], v)
			}
		}
	}
	if !got.HasPayload || !bytes.Equal(got.Payload, rs.Payload) {
		t.Fatalf("payload round trip: got (%v,%q), want (true,%q)", got.HasPayload, got.Payload, rs.Payload)
	}
	if len(got.Global) != len(rs.Global) {
		t.Fatalf("global dict has %d keys, want %d", len(got.Global), len(rs.Global))
	}
	for name, want := range rs.Global {
		gotT, ok := got.Global[name]
		if !ok {
			t.Fatalf("global dict lost key %q", name)
		}
		a, b := want.Data(), gotT.Data()
		if len(a) != len(b) {
			t.Fatalf("tensor %q has %d elements, want %d", name, len(b), len(a))
		}
		for i := range a {
			if !sameFloat(a[i], b[i]) {
				t.Fatalf("tensor %q element %d = %v, want %v", name, i, b[i], a[i])
			}
		}
	}
}

func TestRunStateFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rs := sampleRunState(rng)
	rs.HasPayload, rs.Payload = false, nil
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveRunStateFile(path, rs); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: the atomic temp-and-rename install must replace
	// the previous snapshot, not append or corrupt.
	rs.NextRound = 0
	rs.NextTask = 2
	if err := SaveRunStateFile(path, rs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextTask != 2 || got.NextRound != 0 {
		t.Fatalf("loaded position (%d,%d), want the overwritten (2,0)", got.NextTask, got.NextRound)
	}
	if got.HasPayload || len(got.Payload) != 0 {
		t.Fatalf("payloadless snapshot round-tripped as (%v,%q)", got.HasPayload, got.Payload)
	}
	// No temp litter left behind by the two installs.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %d entries, want just the snapshot", len(entries))
	}
}

func TestRunStateRejectsBadMagic(t *testing.T) {
	if _, err := LoadRunState(bytes.NewReader([]byte("NOTARUN0 plus junk"))); err == nil {
		t.Fatal("bad run-state magic must error")
	}
	// A plain dict checkpoint is not a run state either.
	var buf bytes.Buffer
	if err := Save(&buf, sampleDict(rand.New(rand.NewSource(13)))); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunState(&buf); err == nil {
		t.Fatal("dict checkpoint must not load as a run state")
	}
}

func TestRunStateRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var buf bytes.Buffer
	if err := SaveRunState(&buf, sampleRunState(rng)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 9, 20, len(full) / 2, len(full) - 1} {
		if _, err := LoadRunState(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes must error", cut)
		}
	}
}

func TestRunStateRejectsHostileSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rs := sampleRunState(rng)
	rs.NextTask = maxTasks + 1
	if err := SaveRunState(&bytes.Buffer{}, rs); err == nil {
		t.Fatal("out-of-range resume task must refuse to serialize")
	}
	rs.NextTask = 0
	// LoadRunState rejects rounds beyond the bound, so SaveRunState must not
	// write a snapshot the run could never resume from.
	rs.NextRound = maxTasks + 1
	if err := SaveRunState(&bytes.Buffer{}, rs); err == nil {
		t.Fatal("out-of-range resume round must refuse to serialize")
	}
	rs.NextRound = maxTasks
	var buf bytes.Buffer
	if err := SaveRunState(&buf, rs); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadRunState(&buf); err != nil || got.NextRound != maxTasks {
		t.Fatalf("largest saveable round must load back: %v", err)
	}
	rs.Payload = make([]byte, maxPayload+1)
	if err := SaveRunState(&bytes.Buffer{}, rs); err == nil {
		t.Fatal("oversized payload must refuse to serialize")
	}
}

// TestFilesRejectTrailingBytes appends one byte to a saved model file and to
// a saved run-state file: neither may load, since a file with anything after
// its last entry is not one Save wrote.
func TestFilesRejectTrailingBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dir := t.TempDir()
	model, run := filepath.Join(dir, "model.ckpt"), filepath.Join(dir, "run.ckpt")
	if err := SaveFile(model, sampleDict(rng)); err != nil {
		t.Fatal(err)
	}
	if err := SaveRunStateFile(run, sampleRunState(rng)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{model, run} {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadFile(model); err == nil {
		t.Fatal("a model file with a trailing byte loaded")
	}
	if _, err := LoadRunStateFile(run); err == nil {
		t.Fatal("a run-state file with a trailing byte loaded")
	}
}
