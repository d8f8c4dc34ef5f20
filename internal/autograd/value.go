// Package autograd implements reverse-mode automatic differentiation over
// tensors. A computation builds a dynamic tape of Value nodes; calling
// Backward on a scalar root propagates gradients to every reachable leaf
// that requires them.
//
// The op set is exactly what the RefFiL reproduction needs: broadcast
// arithmetic, ReLU, reductions, matrix products, convolution, normalization
// layers, attention building blocks, fused classification/distillation/
// contrastive losses, and embedding lookups. Every op's backward pass is validated
// against finite differences in the package tests (see GradCheck).
package autograd

import (
	"fmt"

	"reffil/internal/tensor"
)

// Value is a node in the autograd tape: a tensor plus the bookkeeping needed
// to backpropagate through the operation that produced it — its operands,
// its backward function and what that function reads besides them. The
// node holds these in fixed fields, so recording an op on an arena tape
// allocates nothing unless it has more than three operands or permutes more
// than eight axes.
type Value struct {
	// T holds the node's forward result.
	T *tensor.Tensor
	// Grad accumulates dLoss/dT during Backward. It is nil until first
	// needed; use EnsureGrad to materialize it.
	Grad *tensor.Tensor

	requiresGrad bool
	// gradArena, set on a leaf by DrawGradFrom, is where EnsureGrad draws
	// the leaf's Grad instead of where T lives.
	gradArena *tensor.Arena
	// visited marks the node during Backward's topological sort.
	visited bool
	// parents are the op's operands: a slice of inline when there are at
	// most len(inline) of them, so that recording them allocates nothing.
	parents []*Value
	inline  [3]*Value
	// back propagates n's Grad into its parents' Grads, n being this node.
	// It captures nothing: it reads its operands from n.parents, its
	// output from n.T and anything else from the fields below, so
	// recording an op allocates no closure.
	back func(n *Value)
	op   string
	// What an op's backward reads besides its operands and output, set by
	// the op: integer attributes (an axis, a start, a stride and padding),
	// one float attribute (a scale, a temperature), the labels or ids it
	// indexes by (Permute's inverse, in ints when it fits), and forward
	// intermediates drawn where T was. The tape's Reset clears them with
	// the node, so they die with the step.
	ints  [8]int
	f     float64
	idx   []int
	saved [3]*tensor.Tensor
}

// tape is the step-scoped state autograd keeps with an arena (see
// tensor.Arena.Attachment): the nodes over the arena's tensors, in chunks of
// tapeChunk so that a node never moves, and the buffers of Backward's
// topological sort. The arena's Reset clears every node drawn, so a node
// used after it panics on its nil tensor.
type tape struct {
	chunks [][]Value
	n      int
	order  []*Value
	stack  []frame
}

const tapeChunk = 256

func newTape() tensor.Attachment { return new(tape) }

// tapeOf returns ar's tape, nil for the heap.
func tapeOf(ar *tensor.Arena) *tape {
	if ar == nil {
		return nil
	}
	return ar.Attachment(newTape).(*tape)
}

// nodeOver returns a zero node for t: drawn from the tape of t's arena when
// t has one, and from the heap otherwise.
func nodeOver(t *tensor.Tensor) *Value {
	tp := tapeOf(t.Arena())
	if tp == nil {
		return new(Value)
	}
	if tp.n == len(tp.chunks)*tapeChunk {
		tp.chunks = append(tp.chunks, make([]Value, tapeChunk))
	}
	v := &tp.chunks[tp.n/tapeChunk][tp.n%tapeChunk]
	tp.n++
	return v
}

// Reset clears every node drawn since the last Reset and Backward's sort
// buffers, dropping what they reference: tensors, gradients, saved
// intermediates.
func (tp *tape) Reset() {
	for i := 0; i < tp.n; i += tapeChunk {
		clear(tp.chunks[i/tapeChunk][:min(tapeChunk, tp.n-i)])
	}
	tp.n = 0
	clear(tp.order)
	clear(tp.stack[:cap(tp.stack)])
	tp.order = tp.order[:0]
}

// NewLeaf wraps a tensor as a tape leaf. Pass requiresGrad=true for
// trainable parameters and false for data. A leaf over an arena tensor is
// drawn from the arena like an interior node (see newNode) and dies with it.
func NewLeaf(t *tensor.Tensor, requiresGrad bool) *Value {
	v := nodeOver(t)
	v.T, v.requiresGrad, v.op = t, requiresGrad, "leaf"
	return v
}

// Param is shorthand for a trainable leaf.
func Param(t *tensor.Tensor) *Value { return NewLeaf(t, true) }

// Constant is shorthand for a non-trainable leaf.
func Constant(t *tensor.Tensor) *Value { return NewLeaf(t, false) }

// RequiresGrad reports whether gradients flow into this node.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// SetRequiresGrad makes a leaf trainable or constant in place. It decides
// what the ops built on the leaf from then on record for backward; nodes
// built before keep what they recorded. Interior nodes derive the flag from
// their parents, so it panics on one.
func (v *Value) SetRequiresGrad(req bool) {
	if v.op != "leaf" {
		panic(fmt.Sprintf("autograd: SetRequiresGrad on interior %s node", v.op))
	}
	v.requiresGrad = req
}

// CloneLeaf returns a fresh leaf holding a deep copy of the value's tensor,
// preserving trainability. The clone shares no storage with the original and
// carries no gradient or tape history — it is the building block for the
// per-client model replicas of the federated engine's clone contract.
func (v *Value) CloneLeaf() *Value { return NewLeaf(v.T.Clone(), v.requiresGrad) }

// Shape returns the shape of the node's tensor.
func (v *Value) Shape() []int { return v.T.Shape() }

// EnsureGrad materializes and returns the gradient tensor. A gradient lives
// where its value lives unless the leaf was bound elsewhere: an interior
// node whose T was drawn from an arena gets a Grad that dies with it at the
// arena's Reset; a leaf bound by DrawGradFrom — a parameter inside a local
// training job — gets one drawn from that arena, which outlives every step
// of the job; any other leaf over a heap tensor keeps a heap Grad. Only a
// leaf that some step reaches gets a Grad at all, so the optimiser and
// clipping still skip the parameters no step touched. The buffer starts at
// +0 for the first contribution to be added into. An interior node's first
// contribution usually arrives as a buffer it can take over instead (see
// handOff), so Backward draws zeros here only for leaves, for the root, and
// where no hand-off applies.
func (v *Value) EnsureGrad() *tensor.Tensor {
	if v.Grad == nil {
		ar := v.gradArena
		if ar == nil {
			ar = v.T.Arena()
		}
		v.Grad = ar.NewLike(v.T)
	}
	return v.Grad
}

// DrawGradFrom makes every later EnsureGrad of the leaf that finds no Grad
// draw it from a; nil restores the default, where T lives. It decides only
// where a missing Grad is drawn, never moves one that exists. The binder
// owns a and must unbind the leaf before it lends a to anyone else: a Grad
// drawn from a is valid until a's next Reset, and EnsureGrad never draws a
// replacement for it. It panics on an interior node, whose Grad always lives
// with its value.
func (v *Value) DrawGradFrom(a *tensor.Arena) {
	if v.op != "leaf" {
		panic(fmt.Sprintf("autograd: DrawGradFrom on interior %s node", v.op))
	}
	v.gradArena = a
}

// ZeroGrad clears the accumulated gradient.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// newNode constructs an interior tape node whose backward is back, a
// function that reads everything it needs from the node: the op sets the
// node's attributes and saved tensors. The node requires grad if any parent
// does, and Backward only visits nodes that do. Up to three parents are
// copied into the node, so a caller's variadic list stays on its stack; more
// are copied to the heap.
//
// A node over an arena tensor is drawn from that arena (see tape), and so is
// every view header Reshape and View give an arena tensor: both live exactly
// as long as the step's buffers. The arena's Reset clears them — nil tensor,
// nil data — so nothing may hold a node or a view across it; Clone the
// tensor out. A node over a heap tensor is a heap object, as are all nodes
// of a heap tape (GradCheck, EWC's Fisher pass).
func newNode(t *tensor.Tensor, op string, back func(*Value), parents ...*Value) *Value {
	req := false
	for _, p := range parents {
		if p != nil && p.requiresGrad {
			req = true
			break
		}
	}
	v := nodeOver(t)
	v.T, v.requiresGrad, v.op, v.back = t, req, op, back
	if len(parents) <= len(v.inline) {
		v.parents = v.inline[:copy(v.inline[:], parents)]
	} else {
		v.parents = append([]*Value(nil), parents...)
	}
	return v
}

// reduceTemp sums g, a temporary the caller owns, down to like's shape,
// inverting a broadcast. The result is again a temporary: g itself when
// nothing was broadcast, and otherwise a new one, g having gone back to its
// arena.
func reduceTemp(g, like *tensor.Tensor) *tensor.Tensor {
	if g.SameShape(like) {
		return g
	}
	r := tensor.ReduceLike(g, like)
	g.Release()
	return r
}

// accumulate adds g into p.Grad when p participates in backprop. g is only
// read: it may be the node's own Grad or a view of it. Into a p with no Grad
// yet it adds into zeros; callers that can give g away use handOff first.
func accumulate(p *Value, g *tensor.Tensor) {
	if p == nil || !p.requiresGrad {
		return
	}
	p.EnsureGrad().AddInPlace(g)
}

// accumulateSum is accumulate for a g that may be p's value broadcast: g is
// only read, and when it was broadcast, it is summed down to p's shape into
// a temporary that goes to accumulateTemp.
func accumulateSum(p *Value, g *tensor.Tensor) {
	if g.SameShape(p.T) {
		accumulate(p, g)
		return
	}
	accumulateTemp(p, tensor.ReduceLike(g, p.T))
}

// accumulateTemp is accumulate for a g the calling backward computed for this
// one call and nothing else references. It becomes p's Grad when handOff
// allows; otherwise, once added, it goes back to its arena. Never pass it a
// node's Grad.
func accumulateTemp(p *Value, g *tensor.Tensor) {
	if handOff(p, g) {
		return
	}
	accumulate(p, g)
	g.Release()
}

// passOn passes node's own Grad on to p, which holds as many elements: p
// takes the buffer over when handOff allows — node then holds none, and
// Backward has nothing to release for it — and otherwise it is added into
// p's Grad. Nothing of node's backward may read node.Grad after this.
func passOn(node, p *Value) {
	if handOff(p, node.Grad) {
		node.Grad = nil
		return
	}
	accumulate(p, node.Grad)
}

// handedOver, when set, sees every buffer handOff gives away before its new
// holder does. Tests set it (export_test.go) to force the sign of the
// buffer's zeros, proving that no leaf gradient depends on it.
var handedOver func([]float64)

// handOff makes g p's Grad — re-shaped in place to p's shape if it differs —
// instead of adding it into a buffer of zeros, and reports whether it did.
// The caller gives g up: p now holds it, and Backward releases it once p's
// own backward has passed it on.
//
// It applies only to an interior p that requires grad and has no Grad yet,
// and only to a g that EnsureGrad could have drawn for p: a live draw of
// p.T's arena (Tensor.DrawnFrom), never a view, a Wrap or a heap tensor. So
// a heap tape (GradCheck, EWC's Fisher pass) adds into zeros throughout.
//
// What it changes is the sign of zeros. Adding g into +0 turns every −0 of
// g into +0; taken over, g keeps its −0s. Every backward is linear in its
// upstream gradient, and a zero's sign reaches no nonzero value through
// products and sums (x + ±0 = x for x ≠ 0; ±0 · y is a zero), so it can
// only ever reach the sign of zeros downstream. Leaves never take a buffer
// over: their Grads add into +0, which erases every zero's sign before
// clipping or the optimiser reads them, so leaf gradients are bit for bit
// those of the add-into-zeros tape.
func handOff(p *Value, g *tensor.Tensor) bool {
	if p == nil || !p.requiresGrad || p.Grad != nil || p.op == "leaf" || !g.DrawnFrom(p.T.Arena()) {
		return false
	}
	if handedOver != nil {
		handedOver(g.Data())
	}
	if !g.SameShape(p.T) {
		g.ReshapeLike(p.T)
	}
	p.Grad = g
	return true
}

// Backward runs reverse-mode differentiation from root, which must hold a
// single element (a scalar loss). Gradients accumulate into the Grad fields
// of all reachable leaves that require them; call ZeroGrad on parameters
// between steps. Interior nodes' gradients are consumed on the way: each is
// released once its node's backward has run, unless that backward handed it
// to a parent (see handOff), which then releases it in its turn.
func Backward(root *Value) error {
	if root.T.Size() != 1 {
		return fmt.Errorf("autograd: Backward root must be scalar, got shape %v", root.T.Shape())
	}
	if !root.requiresGrad {
		return fmt.Errorf("autograd: Backward root does not require grad (no trainable inputs)")
	}
	order := topoSort(root)
	root.EnsureGrad().Fill(1)
	propagate(order)
	return nil
}

// propagate runs the backward of every node of a topoSort order, children
// before parents: the part of Backward that works on tensors.
func propagate(order []*Value) {
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.Grad != nil {
			n.back(n)
			// An interior gradient has been passed on in full; nothing
			// reads it again, so its buffer serves the nodes still to come.
			// A backward that handed it to a parent has left nil here.
			n.Grad.Release()
			n.Grad = nil
		}
	}
}

// frame is a node on topoSort's DFS stack and the index of the next parent
// to visit.
type frame struct {
	node *Value
	next int
}

// topoSort returns nodes reachable from root that require grad, in
// topological order (parents before children). Iterative DFS keeps deep
// tapes from overflowing the goroutine stack. The visit mark lives on the
// nodes — a tape belongs to one goroutine, as its Grads already demand — and
// is cleared before returning. On an arena tape the order and the DFS stack
// are the tape's buffers, reused by every Backward until the arena's Reset:
// the order is valid until the next topoSort on that arena.
func topoSort(root *Value) []*Value {
	var order []*Value
	var stack []frame
	tp := tapeOf(root.T.Arena())
	if tp != nil {
		order, stack = tp.order[:0], tp.stack[:0]
	}
	stack = append(stack, frame{node: root})
	root.visited = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.parents) {
			p := f.node.parents[f.next]
			f.next++
			if p != nil && p.requiresGrad && !p.visited {
				p.visited = true
				stack = append(stack, frame{node: p})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	for _, n := range order {
		n.visited = false
	}
	if tp != nil {
		tp.order, tp.stack = order, stack
	}
	return order
}
