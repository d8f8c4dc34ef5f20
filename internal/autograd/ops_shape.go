package autograd

import (
	"fmt"

	"reffil/internal/tensor"
)

// Reshape returns a view of a with a new shape (sizes must match): the
// result shares a's elements. Its backward passes its gradient on as it
// is — handed over and re-shaped in place, or added element for element —
// with no view of it in between.
func Reshape(a *Value, shape ...int) *Value {
	out := a.T.Reshape(shape...)
	node := newNode(out, "reshape", a)
	node.back = func() { passOn(node, a) }
	return node
}

// Permute reorders the axes of a. Its backward permutes the gradient back
// by the inverse permutation, which the closure holds by value for up to 8
// axes, so that neither perm nor the inverse reaches the heap.
func Permute(a *Value, perm ...int) *Value {
	out := tensor.Permute(a.T, perm...)
	node := newNode(out, "permute", a)
	if len(perm) > 8 {
		inv := make([]int, len(perm))
		invert(inv, perm)
		node.back = func() { accumulateTemp(a, tensor.Permute(node.Grad, inv...)) }
		return node
	}
	r, inv := len(perm), inverse8(perm)
	node.back = func() {
		axes := inv // a copy: slicing the captured array would move it to the heap
		accumulateTemp(a, tensor.Permute(node.Grad, axes[:r]...))
	}
	return node
}

// inverse8 returns the inverse of a permutation of at most 8 axes.
func inverse8(perm []int) (inv [8]int) {
	invert(inv[:], perm)
	return inv
}

// invert writes the inverse of perm, which tensor.Permute has checked, into
// inv.
func invert(inv, perm []int) {
	for i, p := range perm {
		inv[p] = i
	}
}

// Concat concatenates values along the given axis.
func Concat(axis int, vs ...*Value) *Value {
	ts := make([]*tensor.Tensor, len(vs))
	for i, v := range vs {
		ts[i] = v.T
	}
	out := tensor.Concat(axis, ts...)
	node := newNode(out, "concat", vs...)
	node.back = func() {
		off := 0
		for _, v := range vs {
			width := v.T.Dim(axis)
			if v.requiresGrad {
				accumulateTemp(v, tensor.Narrow(node.Grad, axis, off, off+width))
			}
			off += width
		}
	}
	return node
}

// Narrow slices a along axis from start (inclusive) to end (exclusive).
func Narrow(a *Value, axis, start, end int) *Value {
	out := tensor.Narrow(a.T, axis, start, end)
	node := newNode(out, "narrow", a)
	node.back = func() {
		g := out.Arena().NewLike(a.T)
		tensor.NarrowAddInPlace(g, axis, start, node.Grad)
		accumulateTemp(a, g)
	}
	return node
}

// BroadcastBatch tiles a value with leading dimension 1 into one copy per
// example of batch along axis 0: (1, ...) -> (batch.Dim(0), ...). The tiles,
// and the backward pass's temporary, are drawn from batch's arena — or a's,
// for a heap batch — so a parameter tiled over a step's batch lives with the
// step. The backward pass sums gradients over the tiled axis, which is how
// shared prompts and CLS tokens receive gradient from every batch element.
func BroadcastBatch(a *Value, batch *tensor.Tensor) *Value {
	if a.T.NDim() < 1 || a.T.Dim(0) != 1 {
		panic(fmt.Sprintf("autograd: BroadcastBatch wants leading dim 1, got %v", a.T.Shape()))
	}
	b := batch.Dim(0)
	var dims [8]int // b and a's trailing dims, gathered on the stack
	shape := append(dims[:0], b)
	for i := 1; i < a.T.NDim(); i++ {
		shape = append(shape, a.T.Dim(i))
	}
	out := tensor.ArenaOf(batch, a.T).Scratch(shape...)
	per := a.T.Size()
	for i := 0; i < b; i++ {
		copy(out.Data()[i*per:(i+1)*per], a.T.Data())
	}
	node := newNode(out, "broadcastBatch", a)
	node.back = func() {
		g := out.Arena().NewLike(a.T)
		gd := g.Data()
		src := node.Grad.Data()
		for i := 0; i < b; i++ {
			for j := 0; j < per; j++ {
				gd[j] += src[i*per+j]
			}
		}
		accumulateTemp(a, g)
	}
	return node
}

// Embedding gathers rows of table (V,d) at the given ids, producing
// (len(ids), d) drawn from ar, as is the table-sized gradient its backward
// scatter-adds into; nil draws from the heap. A table is usually a heap
// parameter, so the caller names the arena: a batch's, to keep the gather
// and everything computed from it in the step arena.
func Embedding(ar *tensor.Arena, table *Value, ids []int) *Value {
	d := table.T.Dim(1)
	out := ar.Scratch(len(ids), d)
	for i, id := range ids {
		copy(out.Data()[i*d:(i+1)*d], table.T.Data()[id*d:(id+1)*d])
	}
	node := newNode(out, "embedding", table)
	node.back = func() {
		g := out.Arena().NewLike(table.T)
		for i, id := range ids {
			dst := g.Data()[id*d : (id+1)*d]
			src := node.Grad.Data()[i*d : (i+1)*d]
			for j, v := range src {
				dst[j] += v
			}
		}
		accumulateTemp(table, g)
	}
	return node
}
