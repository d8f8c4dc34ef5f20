package nn

import (
	"fmt"
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/tensor"
)

// PatchEmbed is the paper's feature-map tokenizer: a ViT-style embedding
// with "initialized-only and frozen parameters". Each spatial position of
// the (B,C,H,W) feature map becomes one token; a frozen linear projection
// maps channels to the token width and a frozen positional table is added.
type PatchEmbed struct {
	lists
	name string
	proj *Linear
	pos  *tensor.Tensor // (maxTokens, d), frozen
	dim  int
}

// NewPatchEmbed builds a frozen tokenizer projecting inC channels to dim,
// with positional embeddings for up to maxTokens positions.
func NewPatchEmbed(name string, rng *rand.Rand, inC, dim, maxTokens int) *PatchEmbed {
	proj := NewLinearXavier(name+".proj", rng, inC, dim, true)
	proj.Freeze()
	p := &PatchEmbed{
		name: name,
		proj: proj,
		pos:  tensor.RandN(rng, 0.02, maxTokens, dim),
		dim:  dim,
	}
	return p.listed()
}

// Clone returns a deep copy sharing no tensors with p. The projection stays
// frozen in the clone.
func (p *PatchEmbed) Clone() *PatchEmbed {
	c := &PatchEmbed{name: p.name, proj: p.proj.Clone(), pos: p.pos.Clone(), dim: p.dim}
	return c.listed()
}

// listed builds the tokenizer's lists. It is frozen, so it has no
// parameters: the frozen projection and the positional table travel as
// buffers, so that all participants share the same tokenizer.
func (p *PatchEmbed) listed() *PatchEmbed {
	p.set(nil, join(p.proj.Buffers(), []Buffer{{Name: p.name + ".pos", T: p.pos}}))
	return p
}

// Forward tokenizes a feature map (B,C,H,W) into (B, H*W, dim).
func (p *PatchEmbed) Forward(fm *autograd.Value) (*autograd.Value, error) {
	if fm.T.NDim() != 4 {
		return nil, fmt.Errorf("nn: %s wants a 4-D feature map, got %v", p.name, fm.T.Shape())
	}
	b, c, h, w := fm.T.Dim(0), fm.T.Dim(1), fm.T.Dim(2), fm.T.Dim(3)
	n := h * w
	if n > p.pos.Dim(0) {
		return nil, fmt.Errorf("nn: %s has positional table for %d tokens, need %d", p.name, p.pos.Dim(0), n)
	}
	// (B,C,H,W) -> (B,H,W,C) -> (B, n, C) -> project -> (B, n, dim)
	tokens := autograd.Reshape(autograd.Permute(fm, 0, 2, 3, 1), b, n, c)
	tokens = p.proj.Forward(tokens)
	// The first n rows of the row-major table are contiguous: a view.
	return autograd.Add(tokens, autograd.Constant(p.pos.View(0, 1, n, p.dim))), nil
}

var _ Module = (*PatchEmbed)(nil)
