package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"reffil/internal/autograd"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// promptSource is the extra trainable state of the prompt-based methods
// and the rule that turns a batch into prompt tokens: a prompt shared by
// every sample (L2P's single prompt, DualPrompt's General prompt), a
// key-matched pool (L2P†'s pool, DualPrompt's Experts), or both, shared
// first.
type promptSource struct {
	sharedName string
	shared     *autograd.Value // (1, L, d); nil without a shared prompt
	pool       *promptPool     // nil without a pool
	// topN is how many pool slots key matching selects per sample.
	topN int
	// byTask is DualPrompt's one-Expert-per-task layout: training selects
	// slot = task id, so the pool's slot count bounds the task horizon.
	byTask bool
}

func newSharedPrompt(rng *rand.Rand, lp, dim int) *autograd.Value {
	return autograd.Param(tensor.RandN(rng, 0.02, 1, lp, dim))
}

// clone returns a deep copy for a per-client replica: all prompt state is
// trainable.
func (s *promptSource) clone() *promptSource {
	c := *s
	if s.shared != nil {
		c.shared = s.shared.CloneLeaf()
	}
	if s.pool != nil {
		c.pool = s.pool.clone()
	}
	return &c
}

// params lists the trainable state, shared prompt first.
func (s *promptSource) params() []nn.Param {
	var ps []nn.Param
	if s.shared != nil {
		ps = append(ps, nn.Param{Name: s.sharedName, Value: s.shared})
	}
	if s.pool != nil {
		ps = append(ps, s.pool.params()...)
	}
	return ps
}

// taskStart rejects a task the per-task Expert table has no slot for.
func (s *promptSource) taskStart(task int) error {
	if s.byTask && task >= s.pool.slots {
		return fmt.Errorf("baselines: task %d exceeds DualPrompt expert capacity %d", task, s.pool.slots)
	}
	return nil
}

// promptsFor builds the prompt tokens for a batch's token sequence and,
// when pool keys take part, the key-pull loss term (nil otherwise). taskIDs
// is nil at inference, where selection is always by key matching.
func (s *promptSource) promptsFor(tokens *autograd.Value, taskIDs []int) (prompts, pull *autograd.Value, err error) {
	bs := tokens.T.Dim(0)
	if s.pool != nil {
		queries := meanPatchQuery(tokens)
		var selected [][]int
		if s.byTask && taskIDs != nil {
			selected = make([][]int, bs)
			for i, id := range taskIDs {
				if id < 0 || id >= s.pool.slots {
					return nil, nil, fmt.Errorf("baselines: task id %d outside expert table [0,%d)", id, s.pool.slots)
				}
				selected[i] = []int{id}
			}
		} else {
			selected = s.pool.selectTop(queries, s.topN)
		}
		var keysSel *autograd.Value
		prompts, keysSel = s.pool.gather(selected)
		if pull, err = s.pool.keyPullLoss(keysSel, queries, selected); err != nil {
			return nil, nil, err
		}
	}
	if s.shared == nil {
		return prompts, pull, nil
	}
	shared := autograd.BroadcastBatch(s.shared, tokens.T)
	if prompts == nil {
		return shared, nil, nil
	}
	return autograd.Concat(1, shared, prompts), pull, nil
}

// promptPool is the shared machinery of L2P-style methods: a table of
// prompt slots with learnable keys, selected per sample by cosine matching
// between a query feature and the keys.
type promptPool struct {
	name string
	// pool rows are flattened (lp*d) prompt token blocks.
	pool *autograd.Value
	// keys rows are d-dimensional matching keys.
	keys  *autograd.Value
	slots int
	lp    int
	dim   int
}

func newPromptPool(name string, rng *rand.Rand, slots, lp, dim int) (*promptPool, error) {
	if slots <= 0 || lp <= 0 || dim <= 0 {
		return nil, fmt.Errorf("baselines: prompt pool dims must be positive: slots=%d lp=%d d=%d", slots, lp, dim)
	}
	return &promptPool{
		name:  name,
		pool:  autograd.Param(tensor.RandN(rng, 0.02, slots, lp*dim)),
		keys:  autograd.Param(tensor.RandN(rng, 0.02, slots, dim)),
		slots: slots,
		lp:    lp,
		dim:   dim,
	}, nil
}

// clone returns a deep copy sharing no tensors with p, for per-client
// replicas of pool-based methods.
func (p *promptPool) clone() *promptPool {
	return &promptPool{
		name:  p.name,
		pool:  p.pool.CloneLeaf(),
		keys:  p.keys.CloneLeaf(),
		slots: p.slots,
		lp:    p.lp,
		dim:   p.dim,
	}
}

// meanPatchQuery computes the per-sample query feature: the mean of the
// patch tokens (excluding CLS), detached from the graph as in L2P, where
// the query comes from a frozen feature path.
func meanPatchQuery(tokens *autograd.Value) *tensor.Tensor {
	patches := tensor.Narrow(tokens.T, 1, 1, tokens.T.Dim(1))
	return tensor.MeanAxis(patches, 1, false)
}

// selectTop returns, per query row, the topN slot indices by cosine
// similarity.
func (p *promptPool) selectTop(queries *tensor.Tensor, topN int) [][]int {
	bs, d := queries.Dim(0), queries.Dim(1)
	if topN > p.slots {
		topN = p.slots
	}
	out := make([][]int, bs)
	keyNorm := make([]float64, p.slots)
	for s := 0; s < p.slots; s++ {
		row := p.keys.T.Data()[s*d : (s+1)*d]
		n := 0.0
		for _, v := range row {
			n += v * v
		}
		keyNorm[s] = math.Max(math.Sqrt(n), 1e-12)
	}
	for i := 0; i < bs; i++ {
		q := queries.Data()[i*d : (i+1)*d]
		qn := 0.0
		for _, v := range q {
			qn += v * v
		}
		qn = math.Max(math.Sqrt(qn), 1e-12)
		type cand struct {
			idx int
			sim float64
		}
		cands := make([]cand, p.slots)
		for s := 0; s < p.slots; s++ {
			row := p.keys.T.Data()[s*d : (s+1)*d]
			dot := 0.0
			for t, v := range row {
				dot += v * q[t]
			}
			cands[s] = cand{idx: s, sim: dot / (qn * keyNorm[s])}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].sim > cands[b].sim })
		ids := make([]int, topN)
		for j := 0; j < topN; j++ {
			ids[j] = cands[j].idx
		}
		out[i] = ids
	}
	return out
}

// gather assembles per-sample prompt tokens (B, topN*lp, d) from the
// selected slot ids and returns the selected keys (B*topN, d) for the
// key-pull loss. Gradients flow into both pool and keys.
func (p *promptPool) gather(selected [][]int) (prompts, keysSel *autograd.Value) {
	bs := len(selected)
	topN := len(selected[0])
	flatIDs := make([]int, 0, bs*topN)
	for _, ids := range selected {
		flatIDs = append(flatIDs, ids...)
	}
	rows := autograd.Embedding(p.pool.T.Arena(), p.pool, flatIDs) // (B*topN, lp*d)
	prompts = autograd.Reshape(rows, bs, topN*p.lp, p.dim)
	keysSel = autograd.Embedding(p.keys.T.Arena(), p.keys, flatIDs)
	return prompts, keysSel
}

// keyPullLoss pulls the selected keys toward their queries:
// mean(1 - cos(key, query)) over all selections.
func (p *promptPool) keyPullLoss(keysSel *autograd.Value, queries *tensor.Tensor, selected [][]int) (*autograd.Value, error) {
	topN := len(selected[0])
	bs := len(selected)
	d := queries.Dim(1)
	rep := queries.Arena().Scratch(bs*topN, d) // every row is copied in below
	for i := 0; i < bs; i++ {
		q := queries.Data()[i*d : (i+1)*d]
		for j := 0; j < topN; j++ {
			copy(rep.Data()[(i*topN+j)*d:(i*topN+j+1)*d], q)
		}
	}
	sims, err := autograd.CosineSimPairs(keysSel, rep)
	if err != nil {
		return nil, err
	}
	return autograd.AddScalar(autograd.Neg(autograd.Mean(sims)), 1), nil
}

// params exposes the pool's trainable state with a name prefix.
func (p *promptPool) params() []nn.Param {
	return []nn.Param{
		{Name: p.name + ".pool", Value: p.pool},
		{Name: p.name + ".keys", Value: p.keys},
	}
}
