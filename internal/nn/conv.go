package nn

import (
	"fmt"
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/tensor"
)

// Conv2d is a 2-D convolution layer.
type Conv2d struct {
	lists
	name        string
	W           *autograd.Value // (out, in, kh, kw)
	B           *autograd.Value // (out,) or nil
	Stride, Pad int
}

// NewConv2d builds a He-initialized convolution. Bias is typically false
// when a BatchNorm follows.
func NewConv2d(name string, rng *rand.Rand, inC, outC, kernel, stride, pad int, bias bool) *Conv2d {
	c := &Conv2d{
		name:   name,
		W:      autograd.Param(tensor.KaimingConv(rng, outC, inC, kernel, kernel)),
		Stride: stride,
		Pad:    pad,
	}
	if bias {
		c.B = autograd.Param(tensor.New(outC))
	}
	return c.listed()
}

// Clone returns a deep copy sharing no tensors with c.
func (c *Conv2d) Clone() *Conv2d {
	out := &Conv2d{name: c.name, W: c.W.CloneLeaf(), Stride: c.Stride, Pad: c.Pad}
	if c.B != nil {
		out.B = c.B.CloneLeaf()
	}
	return out.listed()
}

// listed builds the layer's lists: W and B, when there is one, are its
// parameters, and it has no buffers.
func (c *Conv2d) listed() *Conv2d {
	ps := []Param{{Name: c.name + ".w", Value: c.W}}
	if c.B != nil {
		ps = append(ps, Param{Name: c.name + ".b", Value: c.B})
	}
	c.set(ps, nil)
	return c
}

// Forward convolves x (B,C,H,W).
func (c *Conv2d) Forward(x *autograd.Value) (*autograd.Value, error) {
	out, err := autograd.Conv2D(x, c.W, c.B, c.Stride, c.Pad)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", c.name, err)
	}
	return out, nil
}

var _ Module = (*Conv2d)(nil)

// BatchNorm2d is per-channel batch normalization with running statistics.
type BatchNorm2d struct {
	lists
	name        string
	Gamma, Beta *autograd.Value
	Stats       *autograd.BatchNormStats
}

// NewBatchNorm2d builds a BatchNorm over c channels with standard momentum.
func NewBatchNorm2d(name string, c int) *BatchNorm2d {
	b := &BatchNorm2d{
		name:  name,
		Gamma: autograd.Param(tensor.Ones(c)),
		Beta:  autograd.Param(tensor.New(c)),
		Stats: &autograd.BatchNormStats{
			Mean:     tensor.New(c),
			Var:      tensor.Ones(c),
			Momentum: 0.1,
			Eps:      1e-5,
		},
	}
	return b.listed()
}

// Clone returns a deep copy sharing no tensors with b, including the
// running statistics (each model replica tracks its own batch statistics
// during local training; FedAvg reconciles them as buffers).
func (b *BatchNorm2d) Clone() *BatchNorm2d {
	c := &BatchNorm2d{
		name:  b.name,
		Gamma: b.Gamma.CloneLeaf(),
		Beta:  b.Beta.CloneLeaf(),
		Stats: &autograd.BatchNormStats{
			Mean:     b.Stats.Mean.Clone(),
			Var:      b.Stats.Var.Clone(),
			Momentum: b.Stats.Momentum,
			Eps:      b.Stats.Eps,
		},
	}
	return c.listed()
}

// listed builds the layer's lists: gamma and beta are its parameters, the
// running statistics its buffers.
func (b *BatchNorm2d) listed() *BatchNorm2d {
	b.set([]Param{
		{Name: b.name + ".gamma", Value: b.Gamma},
		{Name: b.name + ".beta", Value: b.Beta},
	}, []Buffer{
		{Name: b.name + ".running_mean", T: b.Stats.Mean},
		{Name: b.name + ".running_var", T: b.Stats.Var},
	})
	return b
}

// Forward normalizes x (B,C,H,W); ctx.Train selects batch statistics.
func (b *BatchNorm2d) Forward(ctx *Ctx, x *autograd.Value) (*autograd.Value, error) {
	out, err := autograd.BatchNorm2D(x, b.Gamma, b.Beta, b.Stats, ctx.Train)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", b.name, err)
	}
	return out, nil
}

var _ Module = (*BatchNorm2d)(nil)

// LayerNorm normalizes over the last axis with learnable affine parameters.
type LayerNorm struct {
	lists
	name        string
	Gamma, Beta *autograd.Value
	Eps         float64
}

// NewLayerNorm builds a LayerNorm over width d.
func NewLayerNorm(name string, d int) *LayerNorm {
	l := &LayerNorm{
		name:  name,
		Gamma: autograd.Param(tensor.Ones(d)),
		Beta:  autograd.Param(tensor.New(d)),
		Eps:   1e-5,
	}
	return l.listed()
}

// Clone returns a deep copy sharing no tensors with l.
func (l *LayerNorm) Clone() *LayerNorm {
	c := &LayerNorm{name: l.name, Gamma: l.Gamma.CloneLeaf(), Beta: l.Beta.CloneLeaf(), Eps: l.Eps}
	return c.listed()
}

// listed builds the layer's lists: gamma and beta are its parameters, and
// it has no buffers.
func (l *LayerNorm) listed() *LayerNorm {
	l.set([]Param{
		{Name: l.name + ".gamma", Value: l.Gamma},
		{Name: l.name + ".beta", Value: l.Beta},
	}, nil)
	return l
}

// Forward normalizes x over its last axis.
func (l *LayerNorm) Forward(x *autograd.Value) (*autograd.Value, error) {
	out, err := autograd.LayerNorm(x, l.Gamma, l.Beta, l.Eps)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", l.name, err)
	}
	return out, nil
}

var _ Module = (*LayerNorm)(nil)
