// Package metrics implements the continual-learning evaluation protocol of
// the paper: the task-accuracy matrix and the Avg / Last / FGT / BwT
// summary statistics reported in Tables I–VIII.
package metrics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"maps"
	"math"
	"slices"

	"reffil/internal/tensor"
)

// Matrix is the continual-learning accuracy matrix: A[t][i] is the accuracy
// (in [0,1]) on task i's test set measured after finishing training stage t.
// Only the lower triangle i <= t is meaningful.
type Matrix struct {
	T int
	A [][]float64
}

// NewMatrix allocates an accuracy matrix for tasks continual tasks, with
// entries initialized to NaN so that unrecorded cells are detectable.
func NewMatrix(tasks int) (*Matrix, error) {
	if tasks <= 0 {
		return nil, fmt.Errorf("metrics: task count must be positive, got %d", tasks)
	}
	a := make([][]float64, tasks)
	for t := range a {
		a[t] = make([]float64, tasks)
		for i := range a[t] {
			a[t][i] = math.NaN()
		}
	}
	return &Matrix{T: tasks, A: a}, nil
}

// FprintTriangle writes the recorded lower triangle, one "after task t"
// row per stage with accuracies as percentages — the matrix layout the
// CLIs print after a run.
func (m *Matrix) FprintTriangle(w io.Writer) {
	for t := 0; t < m.T; t++ {
		fmt.Fprintf(w, "  after task %d:", t)
		for i := 0; i <= t; i++ {
			fmt.Fprintf(w, " %6.2f%%", m.A[t][i]*100)
		}
		fmt.Fprintln(w)
	}
}

// Record stores the accuracy on task i after training stage t.
func (m *Matrix) Record(t, i int, acc float64) error {
	if t < 0 || t >= m.T || i < 0 || i > t {
		return fmt.Errorf("metrics: Record(%d,%d) outside lower triangle of %d tasks", t, i, m.T)
	}
	if acc < 0 || acc > 1 {
		return fmt.Errorf("metrics: accuracy %v outside [0,1]", acc)
	}
	m.A[t][i] = acc
	return nil
}

// complete reports whether the lower triangle has been fully recorded.
func (m *Matrix) complete() bool {
	for t := 0; t < m.T; t++ {
		for i := 0; i <= t; i++ {
			if math.IsNaN(m.A[t][i]) {
				return false
			}
		}
	}
	return true
}

// TaskAccuracies returns a_{i,i} for every task: the accuracy on each
// domain measured right after the stage that learned it. These are the
// per-domain columns of Tables III and IV.
func (m *Matrix) TaskAccuracies() []float64 {
	out := make([]float64, m.T)
	for i := 0; i < m.T; i++ {
		out[i] = m.A[i][i]
	}
	return out
}

// Avg is the paper's "Avg %" metric: the mean of the per-task accuracies
// a_{i,i} across all learning steps.
func (m *Matrix) Avg() float64 {
	s := 0.0
	for _, a := range m.TaskAccuracies() {
		s += a
	}
	return s / float64(m.T)
}

// Last is the paper's "Last %" metric: accuracy on the final task after the
// final learning step, a_{T,T}.
func (m *Matrix) Last() float64 { return m.A[m.T-1][m.T-1] }

// FGT is the forgetting measure: for each non-final task, the drop from its
// best-ever accuracy to its final accuracy, averaged. Zero means no
// forgetting; values are in [0,1] when accuracies never improve after
// peaking.
func (m *Matrix) FGT() float64 {
	if m.T < 2 {
		return 0
	}
	s := 0.0
	for i := 0; i < m.T-1; i++ {
		best := math.Inf(-1)
		for t := i; t < m.T-1; t++ {
			if m.A[t][i] > best {
				best = m.A[t][i]
			}
		}
		s += best - m.A[m.T-1][i]
	}
	return s / float64(m.T-1)
}

// BwT is backward transfer: the mean of a_{T,i} - a_{i,i} over non-final
// tasks. Negative values indicate forgetting; positive values mean later
// learning improved earlier tasks.
func (m *Matrix) BwT() float64 {
	if m.T < 2 {
		return 0
	}
	s := 0.0
	for i := 0; i < m.T-1; i++ {
		s += m.A[m.T-1][i] - m.A[i][i]
	}
	return s / float64(m.T-1)
}

// Summary bundles the four reported statistics.
type Summary struct {
	Avg, Last, FGT, BwT float64
	TaskAcc             []float64
}

// Summarize computes all reported metrics; it errors if any lower-triangle
// cell was never recorded, which catches broken evaluation loops early.
func (m *Matrix) Summarize() (Summary, error) {
	if !m.complete() {
		return Summary{}, fmt.Errorf("metrics: accuracy matrix incomplete")
	}
	return Summary{
		Avg:     m.Avg(),
		Last:    m.Last(),
		FGT:     m.FGT(),
		BwT:     m.BwT(),
		TaskAcc: m.TaskAccuracies(),
	}, nil
}

// Accuracy computes top-1 accuracy from predictions and labels.
func Accuracy(pred, labels []int) (float64, error) {
	if len(pred) != len(labels) {
		return 0, fmt.Errorf("metrics: %d predictions for %d labels", len(pred), len(labels))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("metrics: empty evaluation set")
	}
	correct := 0
	for i := range pred {
		if pred[i] == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred)), nil
}

// HashMatrix fingerprints a run's accuracies: the first 8 bytes of the
// SHA-256 of the lower triangle's Float64bits, row by row, in hex. Two runs
// with equal hashes recorded the same accuracies bit for bit.
func HashMatrix(mat *Matrix) string {
	h := sha256.New()
	var buf [hashChunk]byte
	for t := 0; t < mat.T; t++ {
		hashFloats(h, &buf, mat.A[t][:t+1])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// HashState fingerprints a state dict the same way: every name in sorted
// order, each followed by its elements' Float64bits. Two models with equal
// hashes hold the same weights bit for bit.
func HashState(dict map[string]*tensor.Tensor) string {
	h := sha256.New()
	var buf [hashChunk]byte
	for _, name := range slices.Sorted(maps.Keys(dict)) {
		h.Write([]byte(name))
		hashFloats(h, &buf, dict[name].Data())
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// hashChunk is the bytes hashFloats encodes before each Write.
const hashChunk = 4096

// hashFloats writes vs's Float64bits to h, little-endian, encoding them
// through buf a chunk at a time: the bytes hashed are those of one Write
// per element, in a Write per chunk.
func hashFloats(h hash.Hash, buf *[hashChunk]byte, vs []float64) {
	for len(vs) > 0 {
		n := min(len(vs), hashChunk/8)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*n])
		vs = vs[n:]
	}
}
