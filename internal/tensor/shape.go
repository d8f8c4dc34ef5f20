package tensor

import "fmt"

// Reshape returns a tensor sharing t's data with a new shape of identical
// total size. One dimension may be -1, in which case it is inferred. It reads
// and formats only its own copy of shape, so shape does not escape and a
// caller's variadic dimensions stay on its stack. The new header is a view:
// drawn, dimensions and all, from t's arena when t belongs to one, and
// otherwise two heap objects, the header and its dimensions.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := t.ar.header(shape)
	dims := v.shape
	infer := -1
	known := 1
	for i, d := range dims {
		if d == -1 {
			if infer >= 0 {
				panic(fmt.Sprintf("tensor: Reshape with multiple -1 dims %v", dims))
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim for Reshape %v -> %v", t.shape, dims))
		}
		dims[infer] = len(t.data) / known
		known *= dims[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v -> %v changes size", t.shape, dims))
	}
	v.data = t.data
	return v
}

// ReshapeLike gives t like's shape in place; like must hold as many
// elements. Only a live draw of an arena may be re-shaped (see DrawnFrom):
// its shape slice is its own, where a view's or a Wrap's may be shared.
func (t *Tensor) ReshapeLike(like *Tensor) {
	if t.slot == 0 {
		panic(fmt.Sprintf("tensor: ReshapeLike on %v, which is not a live arena draw", t.shape))
	}
	if len(t.data) != len(like.data) {
		panic(fmt.Sprintf("tensor: ReshapeLike %v -> %v changes size", t.shape, like.shape))
	}
	t.shape = append(t.shape[:0], like.shape...)
}

// Flatten returns a 1-D view of t's data.
func (t *Tensor) Flatten() *Tensor { return t.Reshape(len(t.data)) }

// Transpose returns the transpose of a 2-D tensor.
func Transpose(t *Tensor) *Tensor {
	if t.NDim() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs 2-D, got %v", t.shape))
	}
	m, n := t.shape[0], t.shape[1]
	out := t.ar.Scratch(n, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j*m+i] = v
		}
	}
	return out
}

// permRank is the largest rank whose index arithmetic Permute keeps on its
// stack; a tensor of higher rank allocates it.
const permRank = 8

// Permute returns a copy of t with axes reordered by perm. For ranks up to
// permRank it allocates nothing but its result: perm is read in place, and
// formatted through shapeString, so a caller's variadic axes do not escape.
func Permute(t *Tensor, perm ...int) *Tensor {
	r := len(t.shape)
	if len(perm) != r {
		panic(fmt.Sprintf("tensor: Permute arity mismatch perm=%s shape=%s", shapeString(perm), shapeString(t.shape)))
	}
	var buf [3 * permRank]int
	work := buf[:]
	if r > permRank {
		work = make([]int, 3*r)
	}
	// outShape[i] and strides[i] are the size and the input stride of output
	// axis i; idx first marks the axes perm names, then counts the output.
	outShape, strides, idx := work[:r], work[r:2*r], work[2*r:3*r]
	for i, p := range perm {
		if p < 0 || p >= r || idx[p] != 0 {
			panic(fmt.Sprintf("tensor: invalid permutation %s", shapeString(perm)))
		}
		idx[p] = 1
		outShape[i] = t.shape[p]
		strides[i] = 1
		for _, d := range t.shape[p+1:] {
			strides[i] *= d
		}
	}
	clear(idx)
	out := t.ar.Scratch(outShape...)
	// Iterate the output in order, mapping each output index to the input.
	inOff := 0
	for i := range out.data {
		out.data[i] = t.data[inOff]
		for ax := r - 1; ax >= 0; ax-- {
			idx[ax]++
			inOff += strides[ax]
			if idx[ax] < outShape[ax] {
				break
			}
			idx[ax] = 0
			inOff -= strides[ax] * outShape[ax]
		}
	}
	return out
}

// Concat concatenates tensors along the given axis. All other dimensions
// must match. Up to rank permRank the output shape is gathered on the stack.
func Concat(axis int, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of no tensors")
	}
	first := ts[0]
	if axis < 0 || axis >= first.NDim() {
		panic(fmt.Sprintf("tensor: Concat axis %d out of range for shape %v", axis, first.shape))
	}
	var buf [permRank]int
	outShape := append(buf[:0], first.shape...)
	for _, t := range ts[1:] {
		if t.NDim() != first.NDim() {
			panic(fmt.Sprintf("tensor: Concat rank mismatch %v vs %v", first.shape, t.shape))
		}
		for i := range t.shape {
			if i == axis {
				continue
			}
			if t.shape[i] != first.shape[i] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch %v vs %v on axis %d", first.shape, t.shape, i))
			}
		}
		outShape[axis] += t.shape[axis]
	}
	out := ArenaOf(ts...).Scratch(outShape...)
	// outer = product of dims before axis, inner = product after.
	outer, inner := 1, 1
	for i := 0; i < axis; i++ {
		outer *= first.shape[i]
	}
	for i := axis + 1; i < first.NDim(); i++ {
		inner *= first.shape[i]
	}
	outRow := outShape[axis] * inner
	col := 0
	for _, t := range ts {
		rowLen := t.shape[axis] * inner
		for o := 0; o < outer; o++ {
			copy(out.data[o*outRow+col:o*outRow+col+rowLen], t.data[o*rowLen:(o+1)*rowLen])
		}
		col += rowLen
	}
	return out
}

// Narrow returns a copy of the slice of t along axis from start (inclusive)
// to end (exclusive). Up to rank permRank the output shape is gathered on
// the stack.
func Narrow(t *Tensor, axis, start, end int) *Tensor {
	if axis < 0 || axis >= t.NDim() {
		panic(fmt.Sprintf("tensor: Narrow axis %d out of range for shape %v", axis, t.shape))
	}
	if start < 0 || end > t.shape[axis] || start > end {
		panic(fmt.Sprintf("tensor: Narrow range [%d,%d) out of bounds for axis %d of %v", start, end, axis, t.shape))
	}
	var buf [permRank]int
	outShape := append(buf[:0], t.shape...)
	outShape[axis] = end - start
	out := t.ar.Scratch(outShape...)
	outer, inner := 1, 1
	for i := 0; i < axis; i++ {
		outer *= t.shape[i]
	}
	for i := axis + 1; i < t.NDim(); i++ {
		inner *= t.shape[i]
	}
	inRow := t.shape[axis] * inner
	outRow := (end - start) * inner
	for o := 0; o < outer; o++ {
		copy(out.data[o*outRow:(o+1)*outRow], t.data[o*inRow+start*inner:o*inRow+end*inner])
	}
	return out
}

// NarrowAddInPlace adds src into the slice of t along axis starting at
// start. It is the scatter counterpart of Narrow, used by gradients.
func NarrowAddInPlace(t *Tensor, axis, start int, src *Tensor) {
	end := start + src.shape[axis]
	if end > t.shape[axis] {
		panic(fmt.Sprintf("tensor: NarrowAddInPlace overflow axis %d: %d+%d > %d", axis, start, src.shape[axis], t.shape[axis]))
	}
	outer, inner := 1, 1
	for i := 0; i < axis; i++ {
		outer *= t.shape[i]
	}
	for i := axis + 1; i < t.NDim(); i++ {
		inner *= t.shape[i]
	}
	inRow := t.shape[axis] * inner
	srcRow := src.shape[axis] * inner
	for o := 0; o < outer; o++ {
		dst := t.data[o*inRow+start*inner : o*inRow+end*inner]
		s := src.data[o*srcRow : (o+1)*srcRow]
		for i, v := range s {
			dst[i] += v
		}
	}
}

// Row returns a copy of row i of a 2-D tensor as a 1-D tensor.
func Row(t *Tensor, i int) *Tensor {
	if t.NDim() != 2 {
		panic(fmt.Sprintf("tensor: Row needs 2-D, got %v", t.shape))
	}
	n := t.shape[1]
	out := t.ar.Scratch(n)
	copy(out.data, t.data[i*n:(i+1)*n])
	return out
}
