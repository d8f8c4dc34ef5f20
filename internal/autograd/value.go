// Package autograd implements reverse-mode automatic differentiation over
// tensors. A computation builds a dynamic tape of Value nodes; calling
// Backward on a scalar root propagates gradients to every reachable leaf
// that requires them.
//
// The op set is exactly what the RefFiL reproduction needs: broadcast
// arithmetic, matrix products, convolution, pooling, normalization layers,
// attention building blocks, fused classification/distillation/contrastive
// losses, and embedding lookups. Every op's backward pass is validated
// against finite differences in the package tests (see GradCheck).
package autograd

import (
	"fmt"

	"reffil/internal/tensor"
)

// Value is a node in the autograd tape: a tensor plus the bookkeeping needed
// to backpropagate through the operation that produced it.
type Value struct {
	// T holds the node's forward result.
	T *tensor.Tensor
	// Grad accumulates dLoss/dT during Backward. It is nil until first
	// needed; use EnsureGrad to materialize it.
	Grad *tensor.Tensor

	requiresGrad bool
	parents      []*Value
	// back propagates this node's Grad into its parents' Grads.
	back func()
	op   string
}

// NewLeaf wraps a tensor as a tape leaf. Pass requiresGrad=true for
// trainable parameters and false for data.
func NewLeaf(t *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{T: t, requiresGrad: requiresGrad, op: "leaf"}
}

// Param is shorthand for a trainable leaf.
func Param(t *tensor.Tensor) *Value { return NewLeaf(t, true) }

// Constant is shorthand for a non-trainable leaf.
func Constant(t *tensor.Tensor) *Value { return NewLeaf(t, false) }

// RequiresGrad reports whether gradients flow into this node.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// CloneLeaf returns a fresh leaf holding a deep copy of the value's tensor,
// preserving trainability. The clone shares no storage with the original and
// carries no gradient or tape history — it is the building block for the
// per-client model replicas of the federated engine's clone contract.
func (v *Value) CloneLeaf() *Value { return NewLeaf(v.T.Clone(), v.requiresGrad) }

// Shape returns the shape of the node's tensor.
func (v *Value) Shape() []int { return v.T.Shape() }

// EnsureGrad materializes and returns the gradient tensor.
func (v *Value) EnsureGrad() *tensor.Tensor {
	if v.Grad == nil {
		v.Grad = tensor.New(v.T.Shape()...)
	}
	return v.Grad
}

// ZeroGrad clears the accumulated gradient.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// newNode constructs an interior tape node. The node requires grad if any
// parent does; back is only invoked during Backward when it does.
func newNode(t *tensor.Tensor, op string, back func(), parents ...*Value) *Value {
	req := false
	for _, p := range parents {
		if p != nil && p.requiresGrad {
			req = true
			break
		}
	}
	v := &Value{T: t, requiresGrad: req, parents: parents, op: op}
	if req {
		v.back = back
	}
	return v
}

// accumulate adds g into p.Grad when p participates in backprop.
func accumulate(p *Value, g *tensor.Tensor) {
	if p == nil || !p.requiresGrad {
		return
	}
	p.EnsureGrad().AddInPlace(g)
}

// Backward runs reverse-mode differentiation from root, which must hold a
// single element (a scalar loss). Gradients accumulate into the Grad fields
// of all reachable nodes that require them; call ZeroGrad on parameters
// between steps.
func Backward(root *Value) error {
	if root.T.Size() != 1 {
		return fmt.Errorf("autograd: Backward root must be scalar, got shape %v", root.T.Shape())
	}
	if !root.requiresGrad {
		return fmt.Errorf("autograd: Backward root does not require grad (no trainable inputs)")
	}
	order := topoSort(root)
	root.EnsureGrad().Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.Grad != nil {
			n.back()
		}
	}
	return nil
}

// topoSort returns nodes reachable from root that require grad, in
// topological order (parents before children). Iterative DFS keeps deep
// tapes from overflowing the goroutine stack.
func topoSort(root *Value) []*Value {
	var order []*Value
	visited := make(map[*Value]bool)
	type frame struct {
		node *Value
		next int
	}
	stack := []frame{{node: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.parents) {
			p := f.node.parents[f.next]
			f.next++
			if p != nil && p.requiresGrad && !visited[p] {
				visited[p] = true
				stack = append(stack, frame{node: p})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}
