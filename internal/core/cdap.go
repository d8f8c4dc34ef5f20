// Package core implements RefFiL, the paper's rehearsal-free federated
// domain-incremental learning framework: the client-wise domain adaptive
// prompt generator (CDAP, Eq. 4), global prompt sharing and clustering
// (Eq. 5–8, FINCH), local domain-invariant knowledge learning via the GPL
// loss (Eq. 11–12), and domain-specific prompt contrastive learning with
// temperature decay (DPCL, Eq. 9–10), wired into Algorithm 1.
package core

import (
	"fmt"
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// CDAP is the client-wise domain adaptive prompt generator of Eq. 4:
//
//	P_m = LT( CCDA( MLP( LN(I)ᵀ ) )ᵀ ; φ(v) )
//	    = α_v ⊙ CCDA(MLP(LN(I)ᵀ))ᵀ + λ_v
//
// LN normalizes the token sequence; the MLP maps the transposed sequence
// from (n+1) token positions down to p prompt positions (producing
// instance-level prompts); CCDA is the globally-aggregated Cross-Client
// Domain Adaptation linear layer; and the Feature-wise Linear Modulation
// layer LT conditions prompts on the task-key embedding v via the affine
// parameters [α_v, λ_v] = φ(v).
type CDAP struct {
	ln   *nn.LayerNorm
	mlp  *nn.MLP
	ccda *nn.Linear
	// keys is the task-specific key embedding table (MaxTasks, keyDim).
	keys *autograd.Value
	// phi predicts [α_v, λ_v] from a key embedding.
	phi *nn.Linear

	tokens    int // n+1, the input sequence length
	promptLen int // p
	dim       int // token width d
	maxTasks  int
}

// NewCDAP builds a generator for sequences of `tokens` tokens of width dim,
// producing promptLen prompt tokens, with task keys of width keyDim for up
// to maxTasks tasks.
func NewCDAP(name string, rng *rand.Rand, tokens, dim, promptLen, hidden, keyDim, maxTasks int) (*CDAP, error) {
	if tokens <= 0 || dim <= 0 || promptLen <= 0 || hidden <= 0 || keyDim <= 0 || maxTasks <= 0 {
		return nil, fmt.Errorf("core: CDAP dimensions must be positive: tokens=%d dim=%d p=%d hidden=%d key=%d tasks=%d",
			tokens, dim, promptLen, hidden, keyDim, maxTasks)
	}
	return &CDAP{
		ln:        nn.NewLayerNorm(name+".ln", dim),
		mlp:       nn.NewMLP(name+".mlp", rng, tokens, hidden, promptLen),
		ccda:      nn.NewLinear(name+".ccda", rng, dim, dim, true),
		keys:      autograd.Param(tensor.RandN(rng, 0.02, maxTasks, keyDim)),
		phi:       nn.NewLinear(name+".phi", rng, keyDim, 2*dim, true),
		tokens:    tokens,
		promptLen: promptLen,
		dim:       dim,
		maxTasks:  maxTasks,
	}, nil
}

// Clone returns a deep copy sharing no tensors with g, for per-client
// replicas of the prompt generator.
func (g *CDAP) Clone() *CDAP {
	return &CDAP{
		ln:        g.ln.Clone(),
		mlp:       g.mlp.Clone(),
		ccda:      g.ccda.Clone(),
		keys:      g.keys.CloneLeaf(),
		phi:       g.phi.Clone(),
		tokens:    g.tokens,
		promptLen: g.promptLen,
		dim:       g.dim,
		maxTasks:  g.maxTasks,
	}
}

// PromptLen returns p, the number of generated prompt tokens.
func (g *CDAP) PromptLen() int { return g.promptLen }

// Dim returns the token width d.
func (g *CDAP) Dim() int { return g.dim }

// MaxTasks returns the key-table capacity.
func (g *CDAP) MaxTasks() int { return g.maxTasks }

// adapt is the key-independent part of Eq. 4, CCDA(MLP(LN(I)ᵀ))ᵀ: (B, p, d)
// from a token sequence I (B, n+1, d).
func (g *CDAP) adapt(tokens *autograd.Value) (*autograd.Value, error) {
	if tokens.T.NDim() != 3 || tokens.T.Dim(1) != g.tokens || tokens.T.Dim(2) != g.dim {
		return nil, fmt.Errorf("core: CDAP wants (B,%d,%d) tokens, got %v", g.tokens, g.dim, tokens.T.Shape())
	}
	// LN(I) then transpose to (B, d, n+1).
	normed, err := g.ln.Forward(tokens)
	if err != nil {
		return nil, err
	}
	tr := autograd.Permute(normed, 0, 2, 1)
	// MLP over the position axis: (B, d, n+1) -> (B, d, p), back to (B, p, d).
	projected := autograd.Permute(g.mlp.Forward(tr), 0, 2, 1)
	// CCDA: globally transferable linear layer on the token width.
	return g.ccda.Forward(projected), nil
}

// Generate produces instance-level prompts (B, p, d) from a token sequence
// I (B, n+1, d) and per-sample task ids.
func (g *CDAP) Generate(tokens *autograd.Value, taskIDs []int) (*autograd.Value, error) {
	adapted, err := g.adapt(tokens)
	if err != nil {
		return nil, err
	}
	bs := tokens.T.Dim(0)
	if len(taskIDs) != bs {
		return nil, fmt.Errorf("core: CDAP has %d task ids for batch %d", len(taskIDs), bs)
	}
	for _, id := range taskIDs {
		if id < 0 || id >= g.maxTasks {
			return nil, fmt.Errorf("core: task id %d outside key table [0,%d)", id, g.maxTasks)
		}
	}
	// FiLM conditioning on the task key: [α_v, λ_v] = φ(v), with the keys
	// (B, keyDim) gathered into the tokens' arena, so that φ's affines
	// (B, 2d) and everything after them are drawn there too.
	v := autograd.Embedding(tokens.T.Arena(), g.keys, taskIDs)
	affine := g.phi.Forward(v)
	alpha := autograd.Reshape(autograd.Narrow(affine, 1, 0, g.dim), bs, 1, g.dim)
	lambda := autograd.Reshape(autograd.Narrow(affine, 1, g.dim, 2*g.dim), bs, 1, g.dim)
	// α_v ⊙ adapted + λ_v, broadcasting the affines over prompt positions.
	return autograd.Add(autograd.Mul(autograd.AddScalar(alpha, 1), adapted), lambda), nil
}

// InferenceKey returns the key embedding (keyDim) for task-agnostic
// inference: the paper uses the task ID only during training, so prediction
// conditions the generator on the mean of the key embeddings of the
// tasksSeen tasks met so far, drawn from ar with its temporaries. Pass it
// to GenerateWithKey.
func (g *CDAP) InferenceKey(ar *tensor.Arena, tasksSeen int) (*tensor.Tensor, error) {
	if tasksSeen <= 0 || tasksSeen > g.maxTasks {
		return nil, fmt.Errorf("core: tasksSeen %d outside [1,%d]", tasksSeen, g.maxTasks)
	}
	keys := ar.Wrap(g.keys.T)
	out := ar.New(keys.Dim(1))
	for t := 0; t < tasksSeen; t++ {
		out.AddScaledInPlace(1/float64(tasksSeen), tensor.Row(keys, t))
	}
	return out, nil
}

// GenerateWithKey produces prompts with an explicit key embedding (1,keyDim)
// shared across the batch: the task-agnostic inference path. The key joins
// the tokens' arena, so the affines computed from it are drawn there too.
func (g *CDAP) GenerateWithKey(tokens *autograd.Value, key *tensor.Tensor) (*autograd.Value, error) {
	adapted, err := g.adapt(tokens)
	if err != nil {
		return nil, err
	}
	v := autograd.Constant(tokens.T.Arena().Wrap(key).Reshape(1, key.Size()))
	affine := g.phi.Forward(v) // (1, 2d)
	alpha := autograd.BroadcastBatch(autograd.Reshape(autograd.Narrow(affine, 1, 0, g.dim), 1, 1, g.dim), tokens.T)
	lambda := autograd.BroadcastBatch(autograd.Reshape(autograd.Narrow(affine, 1, g.dim, 2*g.dim), 1, 1, g.dim), tokens.T)
	return autograd.Add(autograd.Mul(autograd.AddScalar(alpha, 1), adapted), lambda), nil
}

// Params implements nn.Module.
func (g *CDAP) Params() []nn.Param {
	ps := []nn.Param{{Name: "cdap.keys", Value: g.keys}}
	ps = append(ps, g.ln.Params()...)
	ps = append(ps, g.mlp.Params()...)
	ps = append(ps, g.ccda.Params()...)
	ps = append(ps, g.phi.Params()...)
	return ps
}

// Buffers implements nn.Module.
func (g *CDAP) Buffers() []nn.Buffer { return nil }

var _ nn.Module = (*CDAP)(nil)
