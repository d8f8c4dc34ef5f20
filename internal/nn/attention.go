package nn

import (
	"fmt"
	"math"
	"math/rand"

	"reffil/internal/autograd"
)

// MultiHeadSelfAttention implements standard MHSA over token sequences
// (B, n, d) with h heads of width d/h.
type MultiHeadSelfAttention struct {
	lists
	name           string
	wq, wk, wv, wo *Linear
	heads, dim     int
}

// NewMHSA builds multi-head self-attention with the given model width and
// head count; dim must be divisible by heads.
func NewMHSA(name string, rng *rand.Rand, dim, heads int) (*MultiHeadSelfAttention, error) {
	if dim%heads != 0 {
		return nil, fmt.Errorf("nn: MHSA dim %d not divisible by heads %d", dim, heads)
	}
	m := &MultiHeadSelfAttention{
		name:  name,
		wq:    NewLinearXavier(name+".wq", rng, dim, dim, true),
		wk:    NewLinearXavier(name+".wk", rng, dim, dim, true),
		wv:    NewLinearXavier(name+".wv", rng, dim, dim, true),
		wo:    NewLinearXavier(name+".wo", rng, dim, dim, true),
		heads: heads,
		dim:   dim,
	}
	return m.listed(), nil
}

// Clone returns a deep copy sharing no tensors with m.
func (m *MultiHeadSelfAttention) Clone() *MultiHeadSelfAttention {
	c := &MultiHeadSelfAttention{
		name:  m.name,
		wq:    m.wq.Clone(),
		wk:    m.wk.Clone(),
		wv:    m.wv.Clone(),
		wo:    m.wo.Clone(),
		heads: m.heads,
		dim:   m.dim,
	}
	return c.listed()
}

// listed builds the layer's lists from its projections'.
func (m *MultiHeadSelfAttention) listed() *MultiHeadSelfAttention {
	m.set(join(m.wq.Params(), m.wk.Params(), m.wv.Params(), m.wo.Params()),
		join(m.wq.Buffers(), m.wk.Buffers(), m.wv.Buffers(), m.wo.Buffers()))
	return m
}

// splitHeads reshapes (B,n,d) into (B*h, n, d/h).
func (m *MultiHeadSelfAttention) splitHeads(x *autograd.Value, b, n int) *autograd.Value {
	dh := m.dim / m.heads
	// (B,n,d) -> (B,n,h,dh) -> (B,h,n,dh) -> (B*h,n,dh)
	y := autograd.Reshape(x, b, n, m.heads, dh)
	y = autograd.Permute(y, 0, 2, 1, 3)
	return autograd.Reshape(y, b*m.heads, n, dh)
}

// Forward applies self-attention to x (B,n,d).
func (m *MultiHeadSelfAttention) Forward(x *autograd.Value) (*autograd.Value, error) {
	if x.T.NDim() != 3 || x.T.Dim(2) != m.dim {
		return nil, fmt.Errorf("nn: %s wants (B,n,%d), got %v", m.name, m.dim, x.T.Shape())
	}
	b, n := x.T.Dim(0), x.T.Dim(1)
	dh := m.dim / m.heads
	q := m.splitHeads(m.wq.Forward(x), b, n)
	k := m.splitHeads(m.wk.Forward(x), b, n)
	v := m.splitHeads(m.wv.Forward(x), b, n)
	// scores = Q·Kᵀ / sqrt(dh)  -> (B*h, n, n)
	scores := autograd.Scale(autograd.BatchMatMul(q, autograd.Permute(k, 0, 2, 1)), 1/math.Sqrt(float64(dh)))
	attn := autograd.Softmax(scores)
	ctxv := autograd.BatchMatMul(attn, v) // (B*h, n, dh)
	// Merge heads: (B*h,n,dh) -> (B,h,n,dh) -> (B,n,h,dh) -> (B,n,d)
	y := autograd.Reshape(ctxv, b, m.heads, n, dh)
	y = autograd.Permute(y, 0, 2, 1, 3)
	y = autograd.Reshape(y, b, n, m.dim)
	return m.wo.Forward(y), nil
}

var _ Module = (*MultiHeadSelfAttention)(nil)

// AttentionBlock is the paper's Eq. 2 block:
//
//	I′  = LN(MHSA(I))
//	I″  = MLP(I′)
//	I₊₁ = LN(I′ + I″)
type AttentionBlock struct {
	lists
	attn *MultiHeadSelfAttention
	ln1  *LayerNorm
	mlp  *MLP
	ln2  *LayerNorm
}

// NewAttentionBlock builds the Eq. 2 attention block with an MLP expansion
// factor of 2.
func NewAttentionBlock(name string, rng *rand.Rand, dim, heads int) (*AttentionBlock, error) {
	attn, err := NewMHSA(name+".mhsa", rng, dim, heads)
	if err != nil {
		return nil, err
	}
	a := &AttentionBlock{
		attn: attn,
		ln1:  NewLayerNorm(name+".ln1", dim),
		mlp:  NewMLP(name+".mlp", rng, dim, dim*2, dim),
		ln2:  NewLayerNorm(name+".ln2", dim),
	}
	return a.listed(), nil
}

// Clone returns a deep copy sharing no tensors with a.
func (a *AttentionBlock) Clone() *AttentionBlock {
	c := &AttentionBlock{attn: a.attn.Clone(), ln1: a.ln1.Clone(), mlp: a.mlp.Clone(), ln2: a.ln2.Clone()}
	return c.listed()
}

// listed builds the block's lists from its layers'.
func (a *AttentionBlock) listed() *AttentionBlock {
	a.set(join(a.attn.Params(), a.ln1.Params(), a.mlp.Params(), a.ln2.Params()),
		join(a.attn.Buffers(), a.ln1.Buffers(), a.mlp.Buffers(), a.ln2.Buffers()))
	return a
}

// Forward applies the block to x (B,n,d).
func (a *AttentionBlock) Forward(x *autograd.Value) (*autograd.Value, error) {
	h, err := a.attn.Forward(x)
	if err != nil {
		return nil, err
	}
	iPrime, err := a.ln1.Forward(h)
	if err != nil {
		return nil, err
	}
	iDouble := a.mlp.Forward(iPrime)
	return a.ln2.Forward(autograd.Add(iPrime, iDouble))
}

var _ Module = (*AttentionBlock)(nil)
