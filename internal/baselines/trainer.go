// Package baselines implements the paper's seven comparison methods,
// adapted to federated domain-incremental learning exactly as §V describes,
// as one Trainer: the shared backbone of package model trained by FedAvg
// with cross-entropy, plus the two parts a method may add to it.
//
//   - Finetune — neither part: the lower bound hit hardest by catastrophic
//     forgetting.
//   - FedLwF — regulariser: knowledge distillation from the previous
//     task's global model (Learning without Forgetting).
//   - FedEWC — regulariser: a Fisher-weighted quadratic penalty anchoring
//     parameters important to earlier tasks (Elastic Weight Consolidation).
//   - FedL2P (± prompt pool) — prompt source: a single shared prompt (pool
//     deactivated, the paper's default fair comparison) or a key-matched
//     prompt pool (the † variants).
//   - FedDualPrompt (± prompt pool) — prompt source: a shared General prompt
//     plus Expert prompts selected by key matching.
//
// Everything else — replica, forward pass, local SGD (fl.LocalContext.SGD),
// prediction — is the same code for all seven, so differences in the tables
// come from the continual learning mechanism alone.
package baselines

import (
	"fmt"
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/checkpoint"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// keyLambda scales a prompt source's key-pull term against cross-entropy.
const keyLambda = 0.5

// Trainer is every baseline: a backbone, an optional prompt source and an
// optional regulariser. Finetune is a Trainer with neither.
type Trainer struct {
	name     string
	backbone *model.Backbone
	prompts  *promptSource // nil for the prompt-free methods
	reg      regulariser   // nil when nothing is added to the loss
}

// NewFinetune builds the paper's lower-bound baseline: FedAvg with plain
// cross-entropy and no forgetting mitigation.
func NewFinetune(cfg model.Config, rng *rand.Rand) (*Trainer, error) {
	b, err := model.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &Trainer{name: "Finetune", backbone: b}, nil
}

// NewFedLwF builds Learning without Forgetting with the paper's
// distillation defaults (temperature 2, unit weight).
func NewFedLwF(cfg model.Config, rng *rand.Rand) (*Regularised, error) {
	t, err := NewFinetune(cfg, rng)
	if err != nil {
		return nil, err
	}
	t.name, t.reg = "FedLwF", &lwf{}
	return &Regularised{t}, nil
}

// NewFedEWC builds Elastic Weight Consolidation with the paper's constraint
// factor λ = 300.
func NewFedEWC(cfg model.Config, rng *rand.Rand) (*Regularised, error) {
	t, err := NewFinetune(cfg, rng)
	if err != nil {
		return nil, err
	}
	t.name, t.reg = "FedEWC", &ewc{lambda: 300}
	return &Regularised{t}, nil
}

// Prompt sizes of the L2P and DualPrompt baselines at mini scale.
const (
	l2pPromptLen   = 4
	l2pTopN        = 2
	dualGeneralLen = 2
	dualExpertLen  = 3
	poolSlots      = 8
)

// NewFedL2P builds Learning-to-Prompt (Wang et al., CVPR 2022): one shared
// prompt prepended to every sequence or, with usePool (FedL2P†), each
// sample's l2pTopN closest prompts of a key-matched pool.
func NewFedL2P(cfg model.Config, usePool bool, rng *rand.Rand) (*Trainer, error) {
	t, err := NewFinetune(cfg, rng)
	if err != nil {
		return nil, err
	}
	if usePool {
		pool, err := newPromptPool("l2p", rng, poolSlots, l2pPromptLen, cfg.TokenDim)
		if err != nil {
			return nil, err
		}
		t.name, t.prompts = "FedL2P+pool", &promptSource{pool: pool, topN: l2pTopN}
		return t, nil
	}
	t.name = "FedL2P"
	t.prompts = &promptSource{sharedName: "l2p.shared", shared: newSharedPrompt(rng, l2pPromptLen, cfg.TokenDim)}
	return t, nil
}

// NewFedDualPrompt builds DualPrompt (Wang et al., ECCV 2022): a shared
// General prompt carries task-invariant instructions and Expert prompts
// carry task-specific guidance. With one Expert per task (maxTasks of them)
// training uses the sample's task's Expert — task identity is known while
// learning — and inference selects by key matching; usePool (the † variant)
// replaces that layout with a larger key-matched Expert pool, matching the
// paper's "prompt pool reactivated" comparison.
func NewFedDualPrompt(cfg model.Config, maxTasks int, usePool bool, rng *rand.Rand) (*Trainer, error) {
	if !usePool && maxTasks <= 0 {
		return nil, fmt.Errorf("baselines: DualPrompt needs maxTasks > 0 without a pool")
	}
	t, err := NewFinetune(cfg, rng)
	if err != nil {
		return nil, err
	}
	name, slots := "FedDualPrompt", maxTasks
	if usePool {
		name, slots = "FedDualPrompt+pool", poolSlots
	}
	experts, err := newPromptPool("dualprompt.e", rng, slots, dualExpertLen, cfg.TokenDim)
	if err != nil {
		return nil, err
	}
	t.name = name
	t.prompts = &promptSource{
		sharedName: "dualprompt.g",
		shared:     newSharedPrompt(rng, dualGeneralLen, cfg.TokenDim),
		pool:       experts,
		topN:       1,
		byTask:     !usePool,
	}
	return t, nil
}

// Name implements fl.Algorithm.
func (t *Trainer) Name() string { return t.name }

// Global implements fl.Algorithm: the backbone plus the prompt source's
// trainable state are aggregated by FedAvg.
func (t *Trainer) Global() nn.Module { return t }

// Params implements nn.Module: backbone first, then prompt state.
func (t *Trainer) Params() []nn.Param {
	ps := t.backbone.Params()
	if t.prompts != nil {
		ps = append(ps, t.prompts.params()...)
	}
	return ps
}

// Buffers implements nn.Module.
func (t *Trainer) Buffers() []nn.Buffer { return t.backbone.Buffers() }

// Spawn implements fl.Algorithm: everything trainable is deep-copied. The
// regulariser is shared by reference: its state (LwF's teacher, EWC's
// Fisher and anchor maps) is frozen for the whole task stage, local training
// only reads it, and it changes only in the task hooks and LoadWireState,
// which run serially between rounds.
func (t *Trainer) Spawn() (fl.Algorithm, error) {
	rep := &Trainer{name: t.name, backbone: t.backbone.Clone(), reg: t.reg}
	if t.prompts != nil {
		rep.prompts = t.prompts.clone()
	}
	return rep, nil
}

// OnTaskStart implements fl.Algorithm.
func (t *Trainer) OnTaskStart(task int) error {
	if t.prompts != nil {
		if err := t.prompts.taskStart(task); err != nil {
			return err
		}
	}
	if t.reg != nil {
		t.reg.taskStart(task, t.backbone)
	}
	return nil
}

// OnTaskEnd implements fl.Algorithm.
func (t *Trainer) OnTaskEnd(task int, sample *data.Dataset) error {
	if t.reg == nil {
		return nil
	}
	return t.reg.taskEnd(t.backbone, sample)
}

// forward classifies a batch through the prompt source, returning the
// logits and the source's key-pull term (nil when no keys take part).
// taskIDs is nil at inference.
func (t *Trainer) forward(ctx *nn.Ctx, x *tensor.Tensor, taskIDs []int) (logits, pull *autograd.Value, err error) {
	tokens, err := t.backbone.Tokens(ctx, autograd.Constant(x))
	if err != nil {
		return nil, nil, err
	}
	var prompts *autograd.Value
	if t.prompts != nil {
		if prompts, pull, err = t.prompts.promptsFor(tokens, taskIDs); err != nil {
			return nil, nil, err
		}
	}
	logits, err = t.backbone.Classify(tokens, prompts)
	return logits, pull, err
}

// LocalTrain implements fl.Algorithm: cross-entropy, plus the prompt
// source's key pull, plus the regulariser's term.
func (t *Trainer) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	nnCtx := &nn.Ctx{Train: true}
	params := t.Params()
	return nil, ctx.SGD(params, fl.Momentum, fl.WeightDecay, fl.ClipNorm,
		func(_ int, b data.Batch) (*autograd.Value, error) {
			logits, pull, err := t.forward(nnCtx, b.X, b.Task)
			if err != nil {
				return nil, err
			}
			loss, err := autograd.SoftmaxCrossEntropy(logits, b.Y)
			if err != nil {
				return nil, err
			}
			if pull != nil {
				loss = autograd.Add(loss, autograd.Scale(pull, keyLambda))
			}
			if t.reg != nil {
				return t.reg.penalise(loss, params, b.X, logits)
			}
			return loss, nil
		})
}

// ServerRound implements fl.Algorithm.
func (t *Trainer) ServerRound(task, round int, uploads []fl.Upload) error { return nil }

// Predict implements fl.Algorithm: the same prompt machinery runs at
// inference (key matching needs no task id), with the parameters read as
// constants (nn.Inference, whose contract applies).
func (t *Trainer) Predict(x *tensor.Tensor) ([]int, error) {
	return nn.Inference(t, func() ([]int, error) {
		logits, _, err := t.forward(&nn.Ctx{Train: false}, x, nil)
		if err != nil {
			return nil, err
		}
		return tensor.ArgmaxRows(logits.T), nil
	})
}

// Regularised is a Trainer whose regulariser holds server-side state outside
// Global(); only it is an fl.WireStater, so the other methods keep carrying
// no payload in broadcast frames and checkpoints.
type Regularised struct{ *Trainer }

// EncodeWireState implements fl.WireStater: the regulariser's state as a
// checkpoint-format dict (empty before it has any).
func (r *Regularised) EncodeWireState() ([]byte, error) {
	return checkpoint.Marshal(r.reg.wireState())
}

// LoadWireState implements fl.WireStater, so a networked worker trains
// against exactly the state the coordinator froze.
func (r *Regularised) LoadWireState(b []byte) error {
	dict, err := checkpoint.Unmarshal(b)
	if err != nil {
		return err
	}
	return r.reg.loadWireState(dict, r.backbone)
}

var _ fl.Algorithm = (*Trainer)(nil)
var _ nn.Module = (*Trainer)(nil)
var _ fl.WireStater = (*Regularised)(nil)
