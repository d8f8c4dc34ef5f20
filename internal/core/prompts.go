package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"reffil/internal/finch"
	"reffil/internal/tensor"
)

// PromptUpload is a client's Eq. 5 Local Prompts Group: one mean prompt
// vector per class observed during the final local epoch.
type PromptUpload struct {
	// ByClass maps class -> d-dimensional mean prompt vector.
	ByClass map[int][]float64
}

// lpgAccumulator builds a PromptUpload incrementally during local training.
type lpgAccumulator struct {
	sums   map[int][]float64
	counts map[int]int
	dim    int
}

func newLPGAccumulator(dim int) *lpgAccumulator {
	return &lpgAccumulator{sums: make(map[int][]float64), counts: make(map[int]int), dim: dim}
}

// add accumulates the prompt vector of one sample of the given class.
func (a *lpgAccumulator) add(class int, vec []float64) {
	s, ok := a.sums[class]
	if !ok {
		s = make([]float64, a.dim)
		a.sums[class] = s
	}
	for i, v := range vec {
		s[i] += v
	}
	a.counts[class]++
}

// finish produces the Eq. 5 per-class averages.
func (a *lpgAccumulator) finish() *PromptUpload {
	out := &PromptUpload{ByClass: make(map[int][]float64, len(a.sums))}
	for k, s := range a.sums {
		avg := make([]float64, len(s))
		inv := 1 / float64(a.counts[k])
		for i, v := range s {
			avg[i] = v * inv
		}
		out.ByClass[k] = avg
	}
	return out
}

// PromptBank is the server's clustered global prompt state P̂g (Eq. 8): for
// each class, up to N representative prompt vectors selected by FINCH from
// the clients' uploads.
type PromptBank struct {
	dim int
	// byClass[k] = (N_k, d) representatives for class k.
	byClass map[int]*tensor.Tensor
}

// NewPromptBank creates an empty bank for d-dimensional prompts.
func NewPromptBank(dim int) *PromptBank {
	return &PromptBank{dim: dim, byClass: make(map[int]*tensor.Tensor)}
}

// Empty reports whether no prompts have been aggregated yet (first rounds
// of the first task).
func (b *PromptBank) Empty() bool { return len(b.byClass) == 0 }

// Dim returns the prompt width.
func (b *PromptBank) Dim() int { return b.dim }

// Classes returns the sorted class ids present in the bank.
func (b *PromptBank) Classes() []int {
	out := make([]int, 0, len(b.byClass))
	for k := range b.byClass {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Update performs the server-side global prompt clustering of Eq. 7–8:
// uploads are grouped per class, clustered with FINCH, and reduced to at
// most maxPerClass medoid representatives per class.
func (b *PromptBank) Update(uploads []*PromptUpload, maxPerClass int) error {
	return b.update(uploads, maxPerClass, true)
}

// UpdateNoClustering replaces the Eq. 7–8 FINCH step with plain averaging
// of all uploaded prompts per class — the design-choice ablation the paper
// motivates in §IV ("directly averaging all prompts may lead to a loss of
// important domain-characterized features").
func (b *PromptBank) UpdateNoClustering(uploads []*PromptUpload) error {
	return b.update(uploads, 1, false)
}

func (b *PromptBank) update(uploads []*PromptUpload, maxPerClass int, cluster bool) error {
	if maxPerClass <= 0 {
		return fmt.Errorf("core: maxPerClass must be positive, got %d", maxPerClass)
	}
	grouped := make(map[int][][]float64)
	for _, up := range uploads {
		if up == nil {
			continue
		}
		for k, vec := range up.ByClass {
			if len(vec) != b.dim {
				return fmt.Errorf("core: class %d prompt has width %d, want %d", k, len(vec), b.dim)
			}
			grouped[k] = append(grouped[k], vec)
		}
	}
	if !cluster {
		for k, vecs := range grouped {
			mean := tensor.New(1, b.dim)
			inv := 1 / float64(len(vecs))
			for _, v := range vecs {
				for j, x := range v {
					mean.Data()[j] += inv * x
				}
			}
			b.byClass[k] = mean
		}
		return nil
	}
	for k, vecs := range grouped {
		mat := tensor.New(len(vecs), b.dim)
		for i, v := range vecs {
			copy(mat.Data()[i*b.dim:(i+1)*b.dim], v)
		}
		if len(vecs) == 1 {
			b.byClass[k] = mat
			continue
		}
		hierarchy, err := finch.Cluster(mat)
		if err != nil {
			return fmt.Errorf("core: clustering class %d prompts: %w", k, err)
		}
		part := finch.PartitionWithAtMost(hierarchy, maxPerClass)
		reps, err := finch.Representatives(mat, part)
		if err != nil {
			return fmt.Errorf("core: selecting class %d representatives: %w", k, err)
		}
		sel := tensor.New(len(reps), b.dim)
		for i, r := range reps {
			copy(sel.Data()[i*b.dim:(i+1)*b.dim], mat.Data()[r*b.dim:(r+1)*b.dim])
		}
		b.byClass[k] = sel
	}
	return nil
}

// Flatten returns all representatives as one (N, d) matrix plus the class
// of each row, in sorted class order — the candidate set for DPCL.
func (b *PromptBank) Flatten() (*tensor.Tensor, []int) {
	classes := b.Classes()
	total := 0
	for _, k := range classes {
		total += b.byClass[k].Dim(0)
	}
	if total == 0 {
		return nil, nil
	}
	out := tensor.New(total, b.dim)
	rowClass := make([]int, total)
	row := 0
	for _, k := range classes {
		m := b.byClass[k]
		copy(out.Data()[row*b.dim:(row+m.Dim(0))*b.dim], m.Data())
		for i := 0; i < m.Dim(0); i++ {
			rowClass[row+i] = k
		}
		row += m.Dim(0)
	}
	return out, rowClass
}

// MeanPerClass computes the generalized prompt P̄g of Eq. 11: the average
// of each class's representatives, stacked as a (K, d) matrix in sorted
// class order.
func (b *PromptBank) MeanPerClass() *tensor.Tensor {
	classes := b.Classes()
	if len(classes) == 0 {
		return nil
	}
	out := tensor.New(len(classes), b.dim)
	for i, k := range classes {
		m := b.byClass[k]
		inv := 1 / float64(m.Dim(0))
		dst := out.Data()[i*b.dim : (i+1)*b.dim]
		for r := 0; r < m.Dim(0); r++ {
			src := m.Data()[r*b.dim : (r+1)*b.dim]
			for j, v := range src {
				dst[j] += inv * v
			}
		}
	}
	return out
}

// positivePicker selects the positive prompts of one batch's samples
// (selectPositives) out of two buffers it reuses: the candidates of the
// sample at hand, and every sample's chosen indices back to back.
type positivePicker struct {
	cands  []positiveCand
	picked []int
}

// positiveCand is a bank row of the sample's class and its cosine
// similarity to the sample's prompt vector.
type positiveCand struct {
	idx int
	sim float64
}

// newPositivePicker sizes a picker for batch samples of numPos positives
// each, chosen among bankRows bank rows, so that it never grows.
func newPositivePicker(batch, numPos, bankRows int) *positivePicker {
	return &positivePicker{
		cands:  make([]positiveCand, 0, bankRows),
		picked: make([]int, 0, batch*numPos),
	}
}

// selectPositives chooses, for one sample of class `class` with prompt
// vector u, the indices of its positive prompts among the flattened bank:
// the numPos bank rows of the same class with the highest cosine
// similarity to u (paper: 1 for Old/New clients, 2 for In-between), or nil
// when the bank holds none of the class. The result stays valid, and
// unchanged, while the picker serves the rest of the batch.
func (pp *positivePicker) selectPositives(u []float64, bank *tensor.Tensor, rowClass []int, class, numPos int) []int {
	cands := pp.cands[:0]
	d := len(u)
	uNorm := 0.0
	for _, v := range u {
		uNorm += v * v
	}
	uNorm = math.Max(math.Sqrt(uNorm), 1e-12)
	for i, c := range rowClass {
		if c != class {
			continue
		}
		row := bank.Data()[i*d : (i+1)*d]
		dot, n := 0.0, 0.0
		for j, v := range row {
			dot += v * u[j]
			n += v * v
		}
		n = math.Max(math.Sqrt(n), 1e-12)
		cands = append(cands, positiveCand{idx: i, sim: dot / (uNorm * n)})
	}
	pp.cands = cands
	if len(cands) == 0 {
		return nil
	}
	// The same pdqsort as sort.Slice with the same less, so ties among
	// equal similarities resolve as they always have.
	slices.SortFunc(cands, func(a, b positiveCand) int {
		switch {
		case a.sim > b.sim:
			return -1
		case a.sim < b.sim:
			return 1
		}
		return 0
	})
	numPos = min(numPos, len(cands))
	start := len(pp.picked)
	for _, c := range cands[:numPos] {
		pp.picked = append(pp.picked, c.idx)
	}
	return pp.picked[start:len(pp.picked):len(pp.picked)]
}

// DecayedTemperature implements Eq. 10:
//
//	τ′ = max(τmin, τ · (1 − (γ + (t−1)·β)))
//
// where t is the 1-based task index. The temperature starts loose and
// tightens as domain diversity grows.
func DecayedTemperature(tau, tauMin, gamma, beta float64, task int) (float64, error) {
	if tau <= 0 || tauMin <= 0 {
		return 0, fmt.Errorf("core: temperatures must be positive (tau=%v, tauMin=%v)", tau, tauMin)
	}
	if gamma < 0 || gamma > 1 || beta < 0 || beta > 1 {
		return 0, fmt.Errorf("core: decay rates must be in [0,1] (gamma=%v, beta=%v)", gamma, beta)
	}
	if task < 1 {
		return 0, fmt.Errorf("core: task index must be 1-based, got %d", task)
	}
	t := tau * (1 - (gamma + float64(task-1)*beta))
	if t < tauMin {
		t = tauMin
	}
	return t, nil
}
