// Package model assembles the paper's classification backbone (§II,
// "Learning with Prompts"): a ResNet10 feature extractor h, a frozen
// ViT-style tokenizer producing the token sequence I = [CLS; PT_1..PT_n]
// (Eq. 1), one attention block (Eq. 2), and a linear classifier G reading
// the final [CLS] token (Eq. 3).
//
// All methods in the reproduction — Finetune, FedLwF, FedEWC, FedL2P,
// FedDualPrompt and RefFiL — share this backbone; prompt-based methods
// insert prompt tokens between the CLS token and the patch tokens before
// the attention block.
package model

import (
	"fmt"
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// Config sizes the backbone.
type Config struct {
	// BaseWidth is the ResNet10 stem width; the feature map has 8x this
	// many channels.
	BaseWidth int
	// TokenDim is the token width d.
	TokenDim int
	// Heads is the attention head count (must divide TokenDim).
	Heads int
	// Classes is the classifier output width (shared label space size).
	Classes int
	// ImageSize is the input side length; must be divisible by 8.
	ImageSize int
	// MaxPromptTokens bounds how many prompt tokens can be prepended
	// (sizes the positional budget check).
	MaxPromptTokens int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BaseWidth <= 0 || c.TokenDim <= 0 || c.Heads <= 0 || c.Classes <= 0 {
		return fmt.Errorf("model: all dimensions must be positive: %+v", c)
	}
	if c.TokenDim%c.Heads != 0 {
		return fmt.Errorf("model: token dim %d not divisible by heads %d", c.TokenDim, c.Heads)
	}
	if c.ImageSize%8 != 0 || c.ImageSize < 8 {
		return fmt.Errorf("model: image size %d must be a positive multiple of 8", c.ImageSize)
	}
	return nil
}

// DefaultConfig returns the mini-scale backbone used by tests and benches.
// The prompt budget leaves room for one global prompt per class (the GPL
// path of RefFiL) plus generated local prompts.
func DefaultConfig(classes int) Config {
	return Config{
		BaseWidth:       4,
		TokenDim:        32,
		Heads:           4,
		Classes:         classes,
		ImageSize:       16,
		MaxPromptTokens: classes + 8,
	}
}

// Backbone is the assembled network.
type Backbone struct {
	Cfg        Config
	Extractor  *nn.ResNet10
	Tokenizer  *nn.PatchEmbed
	CLS        *autograd.Value // (1,1,d) trainable class token
	Attn       *nn.AttentionBlock
	Classifier *nn.Linear
	// NumPatches is the patch-token count n for the configured image size.
	NumPatches int
}

// New builds a backbone from the configuration.
func New(cfg Config, rng *rand.Rand) (*Backbone, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	side := cfg.ImageSize / 8
	n := side * side
	ext := nn.NewResNet10("extractor", rng, cfg.BaseWidth)
	tok := nn.NewPatchEmbed("tokenizer", rng, ext.OutC, cfg.TokenDim, n)
	attn, err := nn.NewAttentionBlock("attn", rng, cfg.TokenDim, cfg.Heads)
	if err != nil {
		return nil, err
	}
	return &Backbone{
		Cfg:        cfg,
		Extractor:  ext,
		Tokenizer:  tok,
		CLS:        autograd.Param(tensor.RandN(rng, 0.02, 1, 1, cfg.TokenDim)),
		Attn:       attn,
		Classifier: nn.NewLinear("classifier", rng, cfg.TokenDim, cfg.Classes, true),
		NumPatches: n,
	}, nil
}

// Clone returns a structurally identical backbone whose parameters and
// buffers share no tensors with b — the per-client model replica of the
// engine's clone contract. It is much cheaper than rebuilding via New plus a
// state-dict transplant: no weight re-initialization, one copy per tensor.
func (b *Backbone) Clone() *Backbone {
	return &Backbone{
		Cfg:        b.Cfg,
		Extractor:  b.Extractor.Clone(),
		Tokenizer:  b.Tokenizer.Clone(),
		CLS:        b.CLS.CloneLeaf(),
		Attn:       b.Attn.Clone(),
		Classifier: b.Classifier.Clone(),
		NumPatches: b.NumPatches,
	}
}

// Tokens computes the paper's Eq. 1 token sequence I = [CLS; PT_1..PT_n]
// for a batch x (B,3,S,S), returning (B, n+1, d) with CLS at index 0.
func (b *Backbone) Tokens(ctx *nn.Ctx, x *autograd.Value) (*autograd.Value, error) {
	fm, err := b.Extractor.Forward(ctx, x)
	if err != nil {
		return nil, fmt.Errorf("model: extractor: %w", err)
	}
	patches, err := b.Tokenizer.Forward(fm)
	if err != nil {
		return nil, fmt.Errorf("model: tokenizer: %w", err)
	}
	cls := autograd.BroadcastBatch(b.CLS, x.T)
	return autograd.Concat(1, cls, patches), nil
}

// Classify is Eq. 2–3 on a token sequence I (B,n+1,d): insert prompt tokens
// (B,p,d) between the CLS token and the patch tokens (nil prompts leave I
// unchanged), run the attention block, and classify from the output CLS
// token.
func (b *Backbone) Classify(tokens, prompts *autograd.Value) (*autograd.Value, error) {
	seq := tokens
	if prompts != nil {
		if prompts.T.NDim() != 3 || prompts.T.Dim(0) != tokens.T.Dim(0) || prompts.T.Dim(2) != b.Cfg.TokenDim {
			return nil, fmt.Errorf("model: prompts shape %v incompatible with tokens %v", prompts.T.Shape(), tokens.T.Shape())
		}
		if p := prompts.T.Dim(1); p > b.Cfg.MaxPromptTokens {
			return nil, fmt.Errorf("model: %d prompt tokens exceed budget %d", p, b.Cfg.MaxPromptTokens)
		}
		cls := autograd.Narrow(tokens, 1, 0, 1)
		rest := autograd.Narrow(tokens, 1, 1, tokens.T.Dim(1))
		seq = autograd.Concat(1, cls, prompts, rest)
	}
	out, err := b.Attn.Forward(seq)
	if err != nil {
		return nil, fmt.Errorf("model: attention: %w", err)
	}
	cls := autograd.Reshape(autograd.Narrow(out, 1, 0, 1), seq.T.Dim(0), b.Cfg.TokenDim)
	return b.Classifier.Forward(cls), nil
}

// Forward is the full pass: tokens, optional prompt insertion, head.
// prompts may be nil (prompt-free methods) or (B,p,d).
func (b *Backbone) Forward(ctx *nn.Ctx, x, prompts *autograd.Value) (*autograd.Value, error) {
	tokens, err := b.Tokens(ctx, x)
	if err != nil {
		return nil, err
	}
	return b.Classify(tokens, prompts)
}

// Predict returns argmax class predictions for a batch in eval mode, with
// the parameters read as constants (nn.Inference, whose contract applies).
func (b *Backbone) Predict(x *tensor.Tensor) ([]int, error) {
	return nn.Inference(b, func() ([]int, error) {
		logits, err := b.Forward(&nn.Ctx{Train: false}, autograd.Constant(x), nil)
		if err != nil {
			return nil, err
		}
		return tensor.ArgmaxRows(logits.T), nil
	})
}

// Params implements nn.Module over the whole backbone.
func (b *Backbone) Params() []nn.Param {
	ps := []nn.Param{{Name: "cls", Value: b.CLS}}
	ps = append(ps, b.Extractor.Params()...)
	ps = append(ps, b.Tokenizer.Params()...)
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.Classifier.Params()...)
	return ps
}

// Buffers implements nn.Module.
func (b *Backbone) Buffers() []nn.Buffer {
	var bs []nn.Buffer
	bs = append(bs, b.Extractor.Buffers()...)
	bs = append(bs, b.Tokenizer.Buffers()...)
	bs = append(bs, b.Attn.Buffers()...)
	bs = append(bs, b.Classifier.Buffers()...)
	return bs
}

var _ nn.Module = (*Backbone)(nil)
