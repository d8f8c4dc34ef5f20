// Package tensor implements a dense, row-major, float64 n-dimensional array
// with the operations needed to train the neural networks in this repository:
// broadcast arithmetic, matrix multiplication, im2col-based convolution
// kernels, reductions, and shape manipulation.
//
// Tensors are always contiguous in row-major (C) order. Operations return
// freshly allocated tensors unless the method name says otherwise (e.g.
// AddInPlace) — from the heap, or from the Arena their operands were drawn
// from (see Arena). Shape mismatches are programming errors, not runtime
// conditions, so kernels panic with a descriptive message rather than
// returning errors; all exported entry points in higher-level packages
// validate their inputs before reaching these kernels.
//
// A View is a new tensor header over existing storage: drawn from the
// arena of an arena tensor, a heap allocation otherwise. Loops over the
// elements of a batch take sub-slices of Data instead and call the
// slice-level products (MulInto, MulT1Into, MulT2Into), which touch no
// header at all: a training step then draws per batch, not per image or
// batch element.
package tensor

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Tensor is a dense row-major float64 array.
type Tensor struct {
	shape []int
	data  []float64
	// ar is the arena the tensor belongs to; nil for a heap tensor. slot is
	// non-zero while the arena owns the tensor and it is drawn (see
	// Arena.live); views and wrapped tensors belong without being owned.
	ar   *Arena
	slot int
}

// New returns a zero-filled tensor with the given shape. A tensor with no
// dimensions is a scalar holding one element.
func New(shape ...int) *Tensor { return (*Arena)(nil).draw(shape, true) }

// NewLike is New with t's shape, read in place.
func NewLike(t *Tensor) *Tensor { return (*Arena)(nil).draw(t.shape, true) }

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; the caller must not alias it afterwards.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %s (want %d)", len(data), shapeString(shape), n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// View returns a tensor of the given shape over t's elements starting at
// flat offset lo — no copy. It belongs to t's arena. Of an arena or wrapped
// tensor, its header is drawn from that arena, like Reshape's, and dies at
// the arena's next Reset; of a heap tensor, it is a heap allocation that
// lives as long as t.
func (t *Tensor) View(lo int, shape ...int) *Tensor {
	v := t.ar.header(shape)
	v.data = t.data[lo : lo+sizeOf(v.shape)]
	return v
}

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float64) *Tensor {
	return &Tensor{shape: nil, data: []float64{v}}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of axes.
func (t *Tensor) NDim() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: d}
}

// CopyFrom copies src's data into t. Shapes must match in total size.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set assigns v to the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

// offset formats idx through shapeString, a copy, in its panics, so idx
// does not escape and At's and Set's variadic indices stay on the caller's
// stack.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %s has wrong arity for shape %v", shapeString(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %s out of bounds for shape %v", shapeString(idx), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Item returns the single element of a scalar or one-element tensor.
func (t *Tensor) Item() float64 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.data)))
	}
	return t.data[0]
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor(")
	b.WriteString(shapeString(t.shape))
	if len(t.data) <= 32 {
		b.WriteString(", [")
		for i, v := range t.data {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
		}
		b.WriteString("]")
	} else {
		fmt.Fprintf(&b, ", %d elems", len(t.data))
	}
	b.WriteString(")")
	return b.String()
}

func shapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = strconv.Itoa(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// EqualBits reports whether t and o hold bitwise-identical data: element
// counts equal and every float64 identical at the bit level, so 0 and -0
// differ and NaNs compare by payload. It is the equality the delta-wire
// codecs and FedAvg's unanimity short-circuit rely on — "equal" must never
// merge values that are not literally the same bits.
func (t *Tensor) EqualBits(o *Tensor) bool {
	if len(t.data) != len(o.data) {
		return false
	}
	for i := range t.data {
		if math.Float64bits(t.data[i]) != math.Float64bits(o.data[i]) {
			return false
		}
	}
	return true
}

// AllClose reports whether every element of t is within tol of the matching
// element of o. Shapes must match exactly.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-o.data[i]) > tol {
			return false
		}
	}
	return true
}
