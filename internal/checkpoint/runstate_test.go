package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reffil/internal/tensor"
)

func sampleRunState(rng *rand.Rand) *RunState {
	return &RunState{
		Method:    "RefFiL",
		Dataset:   "pacs",
		Scale:     "mini",
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
	got, err := LoadRunState(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != rs.Method || got.Dataset != rs.Dataset || got.Scale != rs.Scale || got.Seed != rs.Seed {
		t.Fatalf("header round trip: got (%s,%s,%s,%d), want (%s,%s,%s,%d)",
			got.Method, got.Dataset, got.Scale, got.Seed, rs.Method, rs.Dataset, rs.Scale, rs.Seed)
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

// TestRunStateEmptyDatasetAndScale round-trips a snapshot from a writer that
// names neither its dataset nor its scale: both come back empty.
func TestRunStateEmptyDatasetAndScale(t *testing.T) {
	rs := sampleRunState(rand.New(rand.NewSource(17)))
	rs.Dataset, rs.Scale = "", ""
	var buf bytes.Buffer
	if err := SaveRunState(&buf, rs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunState(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != rs.Method || got.Dataset != "" || got.Scale != "" || got.Seed != rs.Seed {
		t.Fatalf("header round trip: got (%q,%q,%q,%d), want (%q,\"\",\"\",%d)", got.Method, got.Dataset, got.Scale, got.Seed, rs.Method, rs.Seed)
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
	if _, err := LoadRunState([]byte("NOTARUN0 plus junk")); err == nil {
		t.Fatal("bad run-state magic must error")
	}
	// A snapshot of the previous format is refused at its magic, checksum
	// or not.
	var old bytes.Buffer
	if err := SaveRunState(&old, sampleRunState(rand.New(rand.NewSource(13)))); err != nil {
		t.Fatal(err)
	}
	v2 := old.Bytes()[:old.Len()-4]
	copy(v2, "RFLRUN02")
	for _, b := range [][]byte{v2, sealed(v2)} {
		if _, err := LoadRunState(b); err == nil || !strings.Contains(err.Error(), "bad run-state magic") {
			t.Fatalf("an RFLRUN02 snapshot: got %v, want the bad-magic error", err)
		}
	}
	// A plain dict checkpoint is not a run state either.
	dict, err := Marshal(sampleDict(rand.New(rand.NewSource(13))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunState(dict); err == nil {
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
		if _, err := LoadRunState(full[:cut]); err == nil {
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
	if got, err := LoadRunState(buf.Bytes()); err != nil || got.NextRound != maxTasks {
		t.Fatalf("largest saveable round must load back: %v", err)
	}
	rs.Payload = make([]byte, maxPayload+1)
	if err := SaveRunState(&bytes.Buffer{}, rs); err == nil {
		t.Fatal("oversized payload must refuse to serialize")
	}
	rs.Payload = nil
	for _, name := range []*string{&rs.Method, &rs.Dataset, &rs.Scale} {
		saved := *name
		*name = strings.Repeat("x", MaxNameLen+1)
		if err := SaveRunState(&bytes.Buffer{}, rs); err == nil {
			t.Fatalf("a %d-byte header name must refuse to serialize", len(*name))
		}
		*name = saved
	}
	// A dataset length past the bound is rejected by its length, even with
	// that many bytes present behind it and a checksum that matches.
	hostile := append([]byte{}, runMagic[:]...)
	hostile = binary.AppendUvarint(hostile, uint64(len(rs.Method)))
	hostile = append(hostile, rs.Method...)
	hostile = binary.AppendUvarint(hostile, MaxNameLen+1)
	hostile = append(hostile, strings.Repeat("x", MaxNameLen+1)...)
	if _, err := LoadRunState(sealed(hostile)); err == nil || !strings.Contains(err.Error(), "string of 4097 bytes exceeds") {
		t.Fatalf("hostile dataset length: got %v, want the dataset length refused", err)
	}
}

// TestRunStateDetectsDamage takes a small snapshot and damages it every way
// a disk or a torn copy can: each single bit flipped, at every byte offset;
// every truncation; one byte appended. Each must fail to load with an
// error, the flips included where they land in a float's mantissa, which
// the parse alone would accept.
func TestRunStateDetectsDamage(t *testing.T) {
	rs := &RunState{
		Method: "FedLwF", Dataset: "pacs", Scale: "smoke", Seed: 3, NextTask: 1,
		Matrix:     [][]float64{{0.5}},
		Global:     map[string]*tensor.Tensor{"w": tensor.FromSlice([]float64{1.5, -2}, 2)},
		Payload:    []byte{7},
		HasPayload: true,
	}
	var buf bytes.Buffer
	if err := SaveRunState(&buf, rs); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := LoadRunState(good); err != nil {
		t.Fatal(err)
	}
	damaged := make([]byte, len(good))
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			copy(damaged, good)
			damaged[i] ^= 1 << bit
			if _, err := LoadRunState(damaged); err == nil {
				t.Fatalf("bit %d of byte %d flipped: the snapshot loaded", bit, i)
			}
		}
	}
	for n := 0; n < len(good); n++ {
		if _, err := LoadRunState(good[:n]); err == nil {
			t.Fatalf("cut to %d of %d bytes: the snapshot loaded", n, len(good))
		}
	}
	if _, err := LoadRunState(append(good[:len(good):len(good)], 0)); err == nil {
		t.Fatal("a byte appended: the snapshot loaded")
	}
}

// TestFilesRejectTrailingBytes appends one byte to a marshaled model dict
// and to a saved run-state file: neither may load, since bytes after the
// last entry are not something the encoder wrote.
func TestFilesRejectTrailingBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	model, err := Marshal(sampleDict(rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(model, 0)); err == nil {
		t.Fatal("a model dict with a trailing byte loaded")
	}
	run := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveRunStateFile(run, sampleRunState(rng)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(run, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunStateFile(run); err == nil {
		t.Fatal("a run-state file with a trailing byte loaded")
	}
}
