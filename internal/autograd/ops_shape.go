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
	return newNode(a.T.Reshape(shape...), "reshape", passOnBackward, a)
}

// Permute reorders the axes of a. Its backward permutes the gradient back
// by the inverse permutation, which the node holds in its ints for up to 8
// axes, so that neither perm nor the inverse reaches the heap.
func Permute(a *Value, perm ...int) *Value {
	node := newNode(tensor.Permute(a.T, perm...), "permute", permuteBackward, a)
	if len(perm) <= len(node.ints) {
		node.idx = node.ints[:len(perm)]
	} else {
		node.idx = make([]int, len(perm))
	}
	for i, p := range perm { // tensor.Permute has checked perm
		node.idx[p] = i
	}
	return node
}

func permuteBackward(n *Value) {
	accumulateTemp(n.parents[0], tensor.Permute(n.Grad, n.idx...))
}

// Concat concatenates values along the given axis.
func Concat(axis int, vs ...*Value) *Value {
	var buf [4]*tensor.Tensor // the operands' tensors, on the stack for up to 4
	ts := buf[:0]
	for _, v := range vs {
		ts = append(ts, v.T)
	}
	node := newNode(tensor.Concat(axis, ts...), "concat", concatBackward, vs...)
	node.ints[0] = axis
	return node
}

func concatBackward(n *Value) {
	axis, off := n.ints[0], 0
	for _, v := range n.parents {
		width := v.T.Dim(axis)
		if v.requiresGrad {
			accumulateTemp(v, tensor.Narrow(n.Grad, axis, off, off+width))
		}
		off += width
	}
}

// Narrow slices a along axis from start (inclusive) to end (exclusive).
func Narrow(a *Value, axis, start, end int) *Value {
	node := newNode(tensor.Narrow(a.T, axis, start, end), "narrow", narrowBackward, a)
	node.ints[0], node.ints[1] = axis, start
	return node
}

func narrowBackward(n *Value) {
	a := n.parents[0]
	g := n.T.Arena().NewLike(a.T)
	tensor.NarrowAddInPlace(g, n.ints[0], n.ints[1], n.Grad)
	accumulateTemp(a, g)
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
	return newNode(out, "broadcastBatch", broadcastBatchBackward, a)
}

func broadcastBatchBackward(n *Value) {
	a := n.parents[0]
	b, per := n.T.Dim(0), a.T.Size()
	g := n.T.Arena().NewLike(a.T)
	gd := g.Data()
	src := n.Grad.Data()
	for i := 0; i < b; i++ {
		for j := 0; j < per; j++ {
			gd[j] += src[i*per+j]
		}
	}
	accumulateTemp(a, g)
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
	node := newNode(out, "embedding", embeddingBackward, table)
	node.idx = ids
	return node
}

func embeddingBackward(n *Value) {
	table := n.parents[0]
	d := table.T.Dim(1)
	g := n.T.Arena().NewLike(table.T)
	for i, id := range n.idx {
		dst := g.Data()[id*d : (id+1)*d]
		src := n.Grad.Data()[i*d : (i+1)*d]
		for j, v := range src {
			dst[j] += v
		}
	}
	accumulateTemp(table, g)
}
