package tensor

import (
	"fmt"
	"math"
)

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// axisSpans decomposes a shape around an axis into (outer, dim, inner)
// products, so element (o, j, i) lives at offset (o*dim+j)*inner+i.
func axisSpans(shape []int, axis int) (outer, dim, inner int) {
	outer, inner = 1, 1
	for i := 0; i < axis; i++ {
		outer *= shape[i]
	}
	dim = shape[axis]
	for i := axis + 1; i < len(shape); i++ {
		inner *= shape[i]
	}
	return outer, dim, inner
}

// reducedShape appends shape without axis, or with it as 1 under keepDim,
// to dst.
func reducedShape(dst, shape []int, axis int, keepDim bool) []int {
	for i, d := range shape {
		if i == axis {
			if keepDim {
				dst = append(dst, 1)
			}
			continue
		}
		dst = append(dst, d)
	}
	return dst
}

// SumAxis sums along the given axis. With keepDim the reduced axis is
// retained with size 1.
func SumAxis(t *Tensor, axis int, keepDim bool) *Tensor {
	if axis < 0 || axis >= t.NDim() {
		panic(fmt.Sprintf("tensor: SumAxis axis %d out of range for %v", axis, t.shape))
	}
	outer, dim, inner := axisSpans(t.shape, axis)
	var dims [permRank]int
	out := t.ar.New(reducedShape(dims[:0], t.shape, axis, keepDim)...)
	for o := 0; o < outer; o++ {
		for j := 0; j < dim; j++ {
			src := t.data[(o*dim+j)*inner : (o*dim+j+1)*inner]
			dst := out.data[o*inner : (o+1)*inner]
			for i, v := range src {
				dst[i] += v
			}
		}
	}
	return out
}

// MeanAxis averages along the given axis.
func MeanAxis(t *Tensor, axis int, keepDim bool) *Tensor {
	out := SumAxis(t, axis, keepDim)
	out.ScaleInPlace(1 / float64(t.shape[axis]))
	return out
}

// MaxAxis returns per-slice maxima along axis and the winning indices.
func MaxAxis(t *Tensor, axis int, keepDim bool) (*Tensor, []int) {
	if axis < 0 || axis >= t.NDim() {
		panic(fmt.Sprintf("tensor: MaxAxis axis %d out of range for %v", axis, t.shape))
	}
	outer, dim, inner := axisSpans(t.shape, axis)
	var dims [permRank]int
	out := t.ar.Scratch(reducedShape(dims[:0], t.shape, axis, keepDim)...)
	idx := make([]int, outer*inner)
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			best := math.Inf(-1)
			bestJ := 0
			for j := 0; j < dim; j++ {
				v := t.data[(o*dim+j)*inner+i]
				if v > best {
					best = v
					bestJ = j
				}
			}
			out.data[o*inner+i] = best
			idx[o*inner+i] = bestJ
		}
	}
	return out, idx
}

// ArgmaxRows returns, for a 2-D tensor, the column index of the maximum in
// each row.
func ArgmaxRows(t *Tensor) []int {
	if t.NDim() != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows needs 2-D, got %v", t.shape))
	}
	_, idx := MaxAxis(t, 1, false)
	return idx
}

// Softmax returns softmax along the last axis, computed stably by
// subtracting the per-row maximum.
func Softmax(t *Tensor) *Tensor {
	if t.NDim() < 1 {
		panic("tensor: Softmax needs at least 1-D")
	}
	n := t.shape[t.NDim()-1]
	rows := len(t.data) / n
	out := t.ar.ScratchLike(t)
	for r := 0; r < rows; r++ {
		src := t.data[r*n : (r+1)*n]
		dst := out.data[r*n : (r+1)*n]
		maxV := math.Inf(-1)
		for _, v := range src {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for i, v := range src {
			e := math.Exp(v - maxV)
			dst[i] = e
			sum += e
		}
		inv := 1 / sum
		for i := range dst {
			dst[i] *= inv
		}
	}
	return out
}
