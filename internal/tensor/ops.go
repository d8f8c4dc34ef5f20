package tensor

import (
	"fmt"
	"math"
	"math/bits"
)

// broadcastShape appends the numpy-style broadcast of shapes a and b to dst,
// or returns an error when the shapes are incompatible. Given a dst on its
// stack, a caller gathers the shape without allocating.
func broadcastShape(dst, a, b []int) ([]int, error) {
	n := max(len(a), len(b))
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == db || db == 1:
			dst = append(dst, da)
		case da == 1:
			dst = append(dst, db)
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast shapes %v and %v", a, b)
		}
	}
	return dst, nil
}

// axes returns n zeroed ints for a broadcasting walk's strides or index:
// buf's, on its caller's stack, when they fit, and the heap's otherwise.
func axes(buf *[permRank]int, n int) []int {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int, n)
}

// broadcastStridesInto fills dst (length len(out)) with strides for
// iterating a tensor of shape `shape` as if it had been broadcast to `out`
// (stride 0 on broadcast axes), and returns dst.
func broadcastStridesInto(dst, shape, out []int) []int {
	acc := 1
	off := len(out) - len(shape)
	for i := len(out) - 1; i >= 0; i-- {
		if i < off || shape[i-off] == 1 {
			dst[i] = 0
		} else {
			dst[i] = acc
			acc *= shape[i-off]
		}
	}
	return dst
}

// binaryOp applies f elementwise with numpy broadcasting.
func binaryOp(a, b *Tensor, f func(x, y float64) float64) *Tensor {
	// Fast path: identical shapes.
	ar := ArenaOf(a, b)
	if a.SameShape(b) {
		out := ar.ScratchLike(a)
		for i := range out.data {
			out.data[i] = f(a.data[i], b.data[i])
		}
		return out
	}
	var dims, saBuf, sbBuf, idxBuf [permRank]int
	outShape, err := broadcastShape(dims[:0], a.shape, b.shape)
	if err != nil {
		panic(err.Error())
	}
	out := ar.Scratch(outShape...)
	sa := broadcastStridesInto(axes(&saBuf, len(outShape)), a.shape, outShape)
	sb := broadcastStridesInto(axes(&sbBuf, len(outShape)), b.shape, outShape)
	idx := axes(&idxBuf, len(outShape))
	oa, ob := 0, 0
	for i := range out.data {
		out.data[i] = f(a.data[oa], b.data[ob])
		// Increment the multi-index and the two offsets.
		for ax := len(outShape) - 1; ax >= 0; ax-- {
			idx[ax]++
			oa += sa[ax]
			ob += sb[ax]
			if idx[ax] < outShape[ax] {
				break
			}
			idx[ax] = 0
			oa -= sa[ax] * outShape[ax]
			ob -= sb[ax] * outShape[ax]
		}
	}
	return out
}

// Add returns a + b with broadcasting. When b broadcasts to a's shape by
// repeating its elements end to end (equal shapes, a residual sum; or a
// position table of shape (1,n,d) over a (B,n,d) batch) it runs as direct
// loops; any other broadcast takes binaryOp's strided walk. Each output is
// the one add a[·] + b[·].
func Add(a, b *Tensor) *Tensor {
	if !tiles(b.shape, a.shape) {
		return binaryOp(a, b, func(x, y float64) float64 { return x + y })
	}
	out := ArenaOf(a, b).ScratchLike(a)
	if n := len(b.data); n > 0 {
		for off := 0; off < len(a.data); off += n {
			ao, oo := a.data[off:off+n], out.data[off:off+n]
			for i, y := range b.data {
				oo[i] = ao[i] + y
			}
		}
	}
	return out
}

// tiles reports whether shape s broadcast to shape t is s's elements
// repeated end to end with t as the result's shape: s has no more axes than
// t, and without its leading 1s it equals t's trailing axes.
func tiles(s, t []int) bool {
	if len(s) > len(t) {
		return false
	}
	for len(s) > 0 && s[0] == 1 {
		s = s[1:]
	}
	for i, d := range s {
		if t[len(t)-len(s)+i] != d {
			return false
		}
	}
	return true
}

// Sub returns a - b with broadcasting.
func Sub(a, b *Tensor) *Tensor { return binaryOp(a, b, func(x, y float64) float64 { return x - y }) }

// Mul returns the elementwise product with broadcasting.
func Mul(a, b *Tensor) *Tensor { return binaryOp(a, b, func(x, y float64) float64 { return x * y }) }

// ReduceTo sums t down to the given target shape, inverting a broadcast.
// It is the gradient counterpart of broadcasting: summing over the axes that
// were expanded. The target shape must be broadcastable to t's shape. When
// the shapes already match the result is a heap copy of t.
func ReduceTo(t *Tensor, shape []int) *Tensor {
	if len(shape) == len(t.shape) {
		same := true
		for i := range shape {
			if shape[i] != t.shape[i] {
				same = false
				break
			}
		}
		if same {
			return t.Clone()
		}
	}
	out := t.ar.New(shape...)
	var stridesBuf, idxBuf [permRank]int
	strides := broadcastStridesInto(axes(&stridesBuf, len(t.shape)), shape, t.shape)
	idx := axes(&idxBuf, len(t.shape))
	off := 0
	for i := range t.data {
		out.data[off] += t.data[i]
		for ax := len(t.shape) - 1; ax >= 0; ax-- {
			idx[ax]++
			off += strides[ax]
			if idx[ax] < t.shape[ax] {
				break
			}
			idx[ax] = 0
			off -= strides[ax] * t.shape[ax]
		}
	}
	return out
}

// ReduceLike is ReduceTo with like's shape, read in place.
func ReduceLike(t, like *Tensor) *Tensor { return ReduceTo(t, like.shape) }

// AddInPlace adds src into t elementwise. Shapes must match in total size.
func (t *Tensor) AddInPlace(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: AddInPlace size mismatch %v vs %v", t.shape, src.shape))
	}
	for i, v := range src.data {
		t.data[i] += v
	}
}

// AddScaledInPlace adds alpha*src into t elementwise.
func (t *Tensor) AddScaledInPlace(alpha float64, src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: AddScaledInPlace size mismatch %v vs %v", t.shape, src.shape))
	}
	for i, v := range src.data {
		t.data[i] += alpha * v
	}
}

// ScaleInPlace multiplies every element by alpha.
func (t *Tensor) ScaleInPlace(alpha float64) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// Scale returns alpha * t.
func Scale(t *Tensor, alpha float64) *Tensor {
	out := t.ar.ScratchLike(t)
	for i, v := range t.data {
		out.data[i] = v * alpha
	}
	return out
}

// AddScalar returns t + c.
func AddScalar(t *Tensor, c float64) *Tensor {
	out := t.ar.ScratchLike(t)
	for i, v := range t.data {
		out.data[i] = v + c
	}
	return out
}

// ReLU returns max(0, x) elementwise: x where x > 0, else +0 (NaN and −0
// included). It masks bits instead of branching on the sign.
func ReLU(t *Tensor) *Tensor {
	out := t.ar.ScratchLike(t)
	PositiveMask(out.data, t.data, t.data)
	return out
}

// PositiveMask writes dst[i] = src[i] where x[i] > 0 and +0 elsewhere, for
// equal-length slices. x > 0 holds exactly when x's bits minus one are below
// +Inf's bits as unsigned integers: the positive subnormals, normals and +Inf
// pass, and ±0, every negative and every NaN fail. The borrow of that
// subtraction is the mask, so there is no branch to mispredict. ReLU's
// forward pass masks x by itself, and its backward pass masks the gradient
// by the input.
func PositiveMask(dst, src, x []float64) {
	src, x = src[:len(dst)], x[:len(dst)]
	for i, v := range x {
		_, below := bits.Sub64(math.Float64bits(v)-1, 0x7ff0000000000000, 0)
		dst[i] = math.Float64frombits(math.Float64bits(src[i]) & -below)
	}
}

// Dot returns the inner product of two equally-sized tensors viewed as flat
// vectors.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %v vs %v", a.shape, b.shape))
	}
	s := 0.0
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s
}

// CosineSimilarity returns the cosine similarity of two equally-sized
// tensors viewed as flat vectors. Zero vectors yield similarity 0.
func CosineSimilarity(a, b *Tensor) float64 {
	na, nb := a.L2Norm(), b.L2Norm()
	//fedvet:ignore floatbits exact zero-vector guard: norms are non-negative and the check is a pure function of the bits
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
