package metrics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"reffil/internal/tensor"
)

// fill records a full lower triangle from a row-major matrix literal.
func fill(t *testing.T, vals [][]float64) *Matrix {
	t.Helper()
	m, err := NewMatrix(len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for ti, row := range vals {
		for i := 0; i <= ti; i++ {
			if err := m.Record(ti, i, row[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0); err == nil {
		t.Fatal("zero tasks must error")
	}
	if _, err := NewMatrix(-1); err == nil {
		t.Fatal("negative tasks must error")
	}
}

func TestRecordValidation(t *testing.T) {
	m, err := NewMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Record(0, 1, 0.5); err == nil {
		t.Fatal("upper-triangle record must error")
	}
	if err := m.Record(3, 0, 0.5); err == nil {
		t.Fatal("out-of-range stage must error")
	}
	if err := m.Record(0, 0, 1.5); err == nil {
		t.Fatal("accuracy > 1 must error")
	}
	if err := m.Record(0, 0, -0.1); err == nil {
		t.Fatal("negative accuracy must error")
	}
}

func TestAvgAndLast(t *testing.T) {
	m := fill(t, [][]float64{
		{0.9},
		{0.8, 0.7},
		{0.6, 0.5, 0.4},
	})
	// Avg = mean of diagonal (0.9, 0.7, 0.4).
	if got, want := m.Avg(), (0.9+0.7+0.4)/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Avg = %v, want %v", got, want)
	}
	if got := m.Last(); got != 0.4 {
		t.Fatalf("Last = %v, want 0.4", got)
	}
}

func TestFGT(t *testing.T) {
	// Task 0: best before final = max(0.9, 0.8) = 0.9, final = 0.6 -> drop 0.3.
	// Task 1: best before final = 0.7, final = 0.5 -> drop 0.2.
	m := fill(t, [][]float64{
		{0.9},
		{0.8, 0.7},
		{0.6, 0.5, 0.4},
	})
	if got, want := m.FGT(), (0.3+0.2)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("FGT = %v, want %v", got, want)
	}
}

func TestBwT(t *testing.T) {
	// BwT = mean of final - when-learned for non-final tasks:
	// (0.6-0.9) and (0.5-0.7) -> -0.25.
	m := fill(t, [][]float64{
		{0.9},
		{0.8, 0.7},
		{0.6, 0.5, 0.4},
	})
	if got, want := m.BwT(), (-0.3-0.2)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("BwT = %v, want %v", got, want)
	}
}

func TestNoForgettingYieldsZeroFGT(t *testing.T) {
	m := fill(t, [][]float64{
		{0.9},
		{0.9, 0.8},
		{0.9, 0.8, 0.7},
	})
	if got := m.FGT(); got != 0 {
		t.Fatalf("FGT with stable accuracies = %v, want 0", got)
	}
	if got := m.BwT(); got != 0 {
		t.Fatalf("BwT with stable accuracies = %v, want 0", got)
	}
}

func TestPositiveBackwardTransfer(t *testing.T) {
	// Later learning improves earlier tasks: BwT > 0, FGT clamps at the
	// measured (negative) drop.
	m := fill(t, [][]float64{
		{0.5},
		{0.7, 0.6},
	})
	if got := m.BwT(); got <= 0 {
		t.Fatalf("BwT = %v, want positive", got)
	}
	if got := m.FGT(); got >= 0 {
		t.Fatalf("FGT = %v, want negative (accuracy rose after learning)", got)
	}
}

func TestSingleTaskEdgeCases(t *testing.T) {
	m := fill(t, [][]float64{{0.8}})
	if got := m.FGT(); got != 0 {
		t.Fatalf("single-task FGT = %v, want 0", got)
	}
	if got := m.BwT(); got != 0 {
		t.Fatalf("single-task BwT = %v, want 0", got)
	}
	if got := m.Avg(); got != 0.8 {
		t.Fatalf("single-task Avg = %v, want 0.8", got)
	}
}

func TestSummarizeRequiresCompleteMatrix(t *testing.T) {
	m, err := NewMatrix(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Record(0, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Summarize(); err == nil {
		t.Fatal("incomplete matrix must not summarize")
	}
	if err := m.Record(1, 0, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := m.Record(1, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	s, err := m.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TaskAcc) != 2 {
		t.Fatalf("TaskAcc length = %d, want 2", len(s.TaskAcc))
	}
}

func TestAccuracy(t *testing.T) {
	tests := []struct {
		name    string
		pred    []int
		labels  []int
		want    float64
		wantErr bool
	}{
		{"perfect", []int{1, 2, 3}, []int{1, 2, 3}, 1, false},
		{"none", []int{1, 1}, []int{0, 0}, 0, false},
		{"half", []int{1, 0}, []int{1, 1}, 0.5, false},
		{"length mismatch", []int{1}, []int{1, 2}, 0, true},
		{"empty", nil, nil, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Accuracy(tt.pred, tt.labels)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Accuracy = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestHashStateHashesEachElementsBits: HashState hashes each name followed
// by its elements' little-endian Float64bits, as one Write per element did,
// for tensors shorter than, equal to and longer than one encoding chunk.
func TestHashStateHashesEachElementsBits(t *testing.T) {
	dict := map[string]*tensor.Tensor{}
	for name, n := range map[string]int{"a": 3, "b": hashChunk / 8, "c": 2*hashChunk/8 + 5} {
		x := tensor.New(n)
		for i := range x.Data() {
			x.Data()[i] = math.Sin(float64(i)) * float64(len(name)+i)
		}
		dict[name] = x
	}
	dict["b"].Data()[7] = math.Copysign(0, -1)
	h := sha256.New()
	var b [8]byte
	for _, name := range []string{"a", "b", "c"} {
		h.Write([]byte(name))
		for _, v := range dict[name].Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got, want := HashState(dict), hex.EncodeToString(h.Sum(nil)[:8]); got != want {
		t.Errorf("HashState = %s, want %s", got, want)
	}
}
