package nn

import (
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/tensor"
)

// Linear is a fully connected layer computing x·W + b.
type Linear struct {
	lists
	name string
	W    *autograd.Value // (in, out)
	B    *autograd.Value // (out,) or nil
	// frozen is set by Freeze. It, not W's flag, decides whether the weights
	// are parameters or buffers, so marking the leaves constant for a while
	// (Inference) leaves the state dict's layout alone.
	frozen bool
}

// NewLinear builds a He-initialized linear layer. Pass bias=false for
// projection layers that are followed by normalization.
func NewLinear(name string, rng *rand.Rand, in, out int, bias bool) *Linear {
	l := &Linear{
		name: name,
		W:    autograd.Param(tensor.KaimingLinear(rng, in, out)),
	}
	if bias {
		l.B = autograd.Param(tensor.New(out))
	}
	return l.listed()
}

// NewLinearXavier builds a Glorot-initialized linear layer, suited to
// attention projections.
func NewLinearXavier(name string, rng *rand.Rand, in, out int, bias bool) *Linear {
	l := &Linear{
		name: name,
		W:    autograd.Param(tensor.XavierLinear(rng, in, out)),
	}
	if bias {
		l.B = autograd.Param(tensor.New(out))
	}
	return l.listed()
}

// Freeze marks the layer's parameters as non-trainable (used by the frozen
// tokenizer, right after building it). Frozen parameters still appear in the
// state dict, as buffers.
func (l *Linear) Freeze() {
	l.frozen = true
	l.W = autograd.Constant(l.W.T)
	if l.B != nil {
		l.B = autograd.Constant(l.B.T)
	}
	l.listed()
}

// Clone returns a deep copy sharing no tensors with l. Frozen layers stay
// frozen.
func (l *Linear) Clone() *Linear {
	c := &Linear{name: l.name, W: l.W.CloneLeaf(), frozen: l.frozen}
	if l.B != nil {
		c.B = l.B.CloneLeaf()
	}
	return c.listed()
}

// Forward applies the layer to x, whose last dimension must equal the
// input width. Higher-rank inputs are flattened over leading dims.
func (l *Linear) Forward(x *autograd.Value) *autograd.Value {
	in := l.W.T.Dim(0)
	if x.T.NDim() == 2 {
		return autograd.Linear(x, l.W, l.B)
	}
	flat := autograd.Reshape(x, -1, in)
	out := autograd.Linear(flat, l.W, l.B)
	// x's leading dims and the output width, gathered on the stack, where
	// they stay: Reshape copies the dims it is given.
	var dims [8]int
	outShape := dims[:0]
	for i := 0; i < x.T.NDim()-1; i++ {
		outShape = append(outShape, x.T.Dim(i))
	}
	return autograd.Reshape(out, append(outShape, l.W.T.Dim(1))...)
}

// listed builds the layer's lists: its weights are parameters, or buffers
// once frozen, so that they still travel in the state dict.
func (l *Linear) listed() *Linear {
	ps := []Param{{Name: l.name + ".w", Value: l.W}}
	if l.B != nil {
		ps = append(ps, Param{Name: l.name + ".b", Value: l.B})
	}
	if !l.frozen {
		l.set(ps, nil)
		return l
	}
	bs := make([]Buffer, len(ps))
	for i, p := range ps {
		bs[i] = Buffer{Name: p.Name, T: p.Value.T}
	}
	l.set(nil, bs)
	return l
}

var _ Module = (*Linear)(nil)

// MLP is a two-layer perceptron with a ReLU between the layers.
type MLP struct {
	lists
	fc1, fc2 *Linear
}

// NewMLP builds an in->hidden->out MLP.
func NewMLP(name string, rng *rand.Rand, in, hidden, out int) *MLP {
	m := &MLP{
		fc1: NewLinear(name+".fc1", rng, in, hidden, true),
		fc2: NewLinear(name+".fc2", rng, hidden, out, true),
	}
	return m.listed()
}

// Clone returns a deep copy sharing no tensors with m.
func (m *MLP) Clone() *MLP {
	c := &MLP{fc1: m.fc1.Clone(), fc2: m.fc2.Clone()}
	return c.listed()
}

// listed builds the layer's lists from its two layers'.
func (m *MLP) listed() *MLP {
	m.set(join(m.fc1.Params(), m.fc2.Params()), join(m.fc1.Buffers(), m.fc2.Buffers()))
	return m
}

// Forward applies fc2(relu(fc1(x))).
func (m *MLP) Forward(x *autograd.Value) *autograd.Value {
	return m.fc2.Forward(autograd.ReLU(m.fc1.Forward(x)))
}

var _ Module = (*MLP)(nil)
