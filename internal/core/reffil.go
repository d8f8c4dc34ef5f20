package core

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"reffil/internal/autograd"
	"reffil/internal/checkpoint"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// Config parameterizes RefFiL.
type Config struct {
	// Model sizes the shared backbone.
	Model model.Config
	// PromptLen is p, the number of generated prompt tokens.
	PromptLen int
	// GenHidden is the CDAP MLP hidden width.
	GenHidden int
	// KeyDim is the task-key embedding width.
	KeyDim int
	// MaxTasks bounds the task-key table.
	MaxTasks int
	// MaxPromptsPerClass is N, the representative budget per class after
	// FINCH clustering (Eq. 8).
	MaxPromptsPerClass int

	// Tau, TauMin, Gamma, Beta parameterize the temperature decay of
	// Eq. 10 (paper defaults: 0.9, 0.3, 0.1, 0.05).
	Tau, TauMin, Gamma, Beta float64
	// UseTemperatureDecay disables Eq. 10 when false (Table VIII "w/o τ′"),
	// using Tau directly.
	UseTemperatureDecay bool

	// EnableCDAP, EnableGPL and EnableDPCL switch the framework's three
	// components for the Table VII ablation. All three on is full RefFiL;
	// all off degenerates to federated finetuning.
	EnableCDAP, EnableGPL, EnableDPCL bool

	// DisableClustering replaces the server's Eq. 7–8 FINCH clustering
	// with plain per-class averaging of uploaded prompts — the design
	// ablation of §IV's "Global Prompts Clustering" motivation.
	DisableClustering bool

	// Momentum and WeightDecay parameterize local SGD; the gradient clip is
	// fl.ClipNorm, as for every method.
	Momentum, WeightDecay float64
}

// DefaultConfig returns the paper-default RefFiL configuration at mini
// model scale for `classes` classes and up to maxTasks tasks.
func DefaultConfig(classes, maxTasks int) Config {
	return Config{
		Model:               model.DefaultConfig(classes),
		PromptLen:           4,
		GenHidden:           16,
		KeyDim:              8,
		MaxTasks:            maxTasks,
		MaxPromptsPerClass:  3,
		Tau:                 0.9,
		TauMin:              0.3,
		Gamma:               0.1,
		Beta:                0.05,
		UseTemperatureDecay: true,
		EnableCDAP:          true,
		EnableGPL:           true,
		EnableDPCL:          true,
		Momentum:            fl.Momentum,
		WeightDecay:         fl.WeightDecay,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.EnableCDAP && (c.PromptLen <= 0 || c.GenHidden <= 0 || c.KeyDim <= 0 || c.MaxTasks <= 0) {
		return fmt.Errorf("core: CDAP dimensions must be positive: %+v", c)
	}
	if (c.EnableGPL || c.EnableDPCL) && c.MaxPromptsPerClass <= 0 {
		return fmt.Errorf("core: MaxPromptsPerClass must be positive when prompts are shared")
	}
	if c.EnableDPCL {
		if _, err := DecayedTemperature(c.Tau, c.TauMin, c.Gamma, c.Beta, 1); err != nil {
			return err
		}
	}
	return nil
}

// sharesPrompts reports whether clients upload prompt groups and the server
// maintains the global bank.
func (c Config) sharesPrompts() bool { return c.EnableGPL || c.EnableDPCL }

// RefFiL implements fl.Algorithm: the full framework of Algorithm 1.
type RefFiL struct {
	cfg      Config
	backbone *model.Backbone
	gen      *CDAP // nil when CDAP is disabled
	// server is the state LocalTrain reads beyond Global(), which a
	// parent and all of its replicas share by pointer.
	server *serverState
}

// serverState is RefFiL's server-side state outside Global(): the clustered
// prompt bank and the task counter. Only the parent writes it — OnTaskStart,
// ServerRound and LoadWireState, between rounds — and its replicas read it
// through the shared pointer, so a replica a runner keeps across rounds
// sees every change without being spawned again.
type serverState struct {
	bank *PromptBank
	// task is the current 0-based incremental stage.
	task int
}

// New builds RefFiL with the given configuration.
func New(cfg Config, rng *rand.Rand) (*RefFiL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	backbone, err := model.New(cfg.Model, rng)
	if err != nil {
		return nil, err
	}
	r := &RefFiL{
		cfg:      cfg,
		backbone: backbone,
		server:   &serverState{bank: NewPromptBank(cfg.Model.TokenDim)},
	}
	if cfg.EnableCDAP {
		gen, err := NewCDAP("cdap", rng, backbone.NumPatches+1, cfg.Model.TokenDim,
			cfg.PromptLen, cfg.GenHidden, cfg.KeyDim, cfg.MaxTasks)
		if err != nil {
			return nil, err
		}
		r.gen = gen
	}
	return r, nil
}

// Name implements fl.Algorithm.
func (r *RefFiL) Name() string {
	switch {
	case r.cfg.EnableCDAP && r.cfg.EnableGPL && r.cfg.EnableDPCL:
		return "RefFiL"
	case !r.cfg.EnableCDAP && !r.cfg.EnableGPL && !r.cfg.EnableDPCL:
		return "RefFiL(none)"
	default:
		return fmt.Sprintf("RefFiL(cdap=%v,gpl=%v,dpcl=%v)", r.cfg.EnableCDAP, r.cfg.EnableGPL, r.cfg.EnableDPCL)
	}
}

// Global implements fl.Algorithm: the backbone plus (when enabled) the CDAP
// generator — including its globally transferable CCDA layer — are
// aggregated by FedAvg.
func (r *RefFiL) Global() nn.Module {
	if r.gen != nil {
		return nn.Modules{r.backbone, r.gen}
	}
	return r.backbone
}

// Bank exposes the server's clustered global prompts (for tests and tools).
func (r *RefFiL) Bank() *PromptBank { return r.server.bank }

// Spawn implements fl.Algorithm: the backbone and CDAP generator are
// deep-copied so concurrent clients train independent replicas, while the
// server state — prompt bank and task counter — is shared by pointer: local
// training only reads it (Flatten, MeanPerClass, the temperature decay), and
// it changes only in the task hooks, ServerRound and LoadWireState, which
// run serially while no replica trains.
func (r *RefFiL) Spawn() (fl.Algorithm, error) {
	rep := &RefFiL{
		cfg:      r.cfg,
		backbone: r.backbone.Clone(),
		server:   r.server,
	}
	if r.gen != nil {
		rep.gen = r.gen.Clone()
	}
	return rep, nil
}

// OnTaskStart implements fl.Algorithm.
func (r *RefFiL) OnTaskStart(task int) error {
	if r.gen != nil && task >= r.cfg.MaxTasks {
		return fmt.Errorf("core: task %d exceeds key table capacity %d", task, r.cfg.MaxTasks)
	}
	r.server.task = task
	return nil
}

// OnTaskEnd implements fl.Algorithm.
func (r *RefFiL) OnTaskEnd(task int, sample *data.Dataset) error { return nil }

// promptVectors returns the prompt token matrix CDAP generates for the batch
// (nil with CDAP off) and, when prompts are shared — nothing reads them
// otherwise — the per-sample d-dimensional prompt vectors u_i used for
// uploads and DPCL: the mean of the generated prompt tokens when CDAP is
// on, otherwise the mean of the token sequence (a prototype in the FPL
// sense).
func (r *RefFiL) promptVectors(tokens *autograd.Value, taskIDs []int) (u, localPrompts *autograd.Value, err error) {
	source := tokens
	if r.gen != nil {
		if localPrompts, err = r.gen.Generate(tokens, taskIDs); err != nil {
			return nil, nil, err
		}
		source = localPrompts
	}
	if !r.cfg.sharesPrompts() {
		return nil, localPrompts, nil
	}
	return autograd.MeanAxis(source, 1), localPrompts, nil
}

// crossEntropy is L_CE of the backbone's prediction with the given prompts.
func (r *RefFiL) crossEntropy(tokens, prompts *autograd.Value, y []int) (*autograd.Value, error) {
	logits, err := r.backbone.Classify(tokens, prompts)
	if err != nil {
		return nil, err
	}
	return autograd.SoftmaxCrossEntropy(logits, y)
}

// LocalTrain implements fl.Algorithm: Algorithm 1's participant side.
func (r *RefFiL) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	tau := r.cfg.Tau
	if r.cfg.UseTemperatureDecay {
		var err error
		tau, err = DecayedTemperature(r.cfg.Tau, r.cfg.TauMin, r.cfg.Gamma, r.cfg.Beta, r.server.task+1)
		if err != nil {
			return nil, err
		}
	}
	numPos := 1
	if ctx.Group == fl.GroupInBetween {
		numPos = 2
	}

	var (
		bankFlat  *tensor.Tensor
		bankClass []int
		meanG     *tensor.Tensor
		acc       *lpgAccumulator
	)
	if r.cfg.sharesPrompts() {
		acc = newLPGAccumulator(r.cfg.Model.TokenDim)
		if bank := r.server.bank; !bank.Empty() {
			bankFlat, bankClass = bank.Flatten()
			meanG = bank.MeanPerClass()
		}
	}

	nnCtx := &nn.Ctx{Train: true}
	d := r.cfg.Model.TokenDim
	err := ctx.SGD(r.Global().Params(), r.cfg.Momentum, r.cfg.WeightDecay, fl.ClipNorm,
		func(epoch int, b data.Batch) (*autograd.Value, error) {
			tokens, err := r.backbone.Tokens(nnCtx, autograd.Constant(b.X))
			if err != nil {
				return nil, err
			}
			u, localPrompts, err := r.promptVectors(tokens, b.Task)
			if err != nil {
				return nil, err
			}
			// L_CE (Eq. 13): classify with local prompts.
			loss, err := r.crossEntropy(tokens, localPrompts, b.Y)
			if err != nil {
				return nil, err
			}
			// L_GPL (Eq. 12): classify with the generalized global prompt.
			if r.cfg.EnableGPL && meanG != nil {
				// Wrapped into the step's arena (b.X's) so the tiled copy
				// is drawn there too.
				gp := autograd.BroadcastBatch(
					autograd.Constant(b.X.Arena().Wrap(meanG).Reshape(1, meanG.Dim(0), meanG.Dim(1))), b.X)
				gpl, err := r.crossEntropy(tokens, gp, b.Y)
				if err != nil {
					return nil, err
				}
				loss = autograd.Add(loss, gpl)
			}
			// L_DPCL (Eq. 9): contrast generated prompts against the bank.
			if r.cfg.EnableDPCL && bankFlat != nil {
				sims, err := autograd.CosineSimToConst(u, bankFlat)
				if err != nil {
					return nil, err
				}
				positives := make([][]int, len(b.Y))
				pick := newPositivePicker(len(b.Y), numPos, len(bankClass))
				for i, y := range b.Y {
					positives[i] = pick.selectPositives(u.T.Data()[i*d:(i+1)*d], bankFlat, bankClass, y, numPos)
				}
				dpcl, err := autograd.InfoNCE(sims, positives, tau)
				if err != nil {
					return nil, err
				}
				loss = autograd.Add(loss, dpcl)
			}
			// Algorithm 1 lines 26–27: collect prompts in the final epoch.
			if acc != nil && epoch == ctx.Epochs-1 {
				for i, y := range b.Y {
					acc.add(y, u.T.Data()[i*d:(i+1)*d])
				}
			}
			return loss, nil
		})
	if err != nil || acc == nil {
		return nil, err
	}
	return acc.finish(), nil
}

// ServerRound implements fl.Algorithm: global prompt clustering (Eq. 7–8).
func (r *RefFiL) ServerRound(task, round int, uploads []fl.Upload) error {
	if !r.cfg.sharesPrompts() || len(uploads) == 0 {
		return nil
	}
	groups := make([]*PromptUpload, 0, len(uploads))
	for _, up := range uploads {
		pu, ok := up.(*PromptUpload)
		if !ok {
			return fmt.Errorf("core: unexpected upload type %T", up)
		}
		groups = append(groups, pu)
	}
	if r.cfg.DisableClustering {
		return r.server.bank.UpdateNoClustering(groups)
	}
	return r.server.bank.Update(groups, r.cfg.MaxPromptsPerClass)
}

// Predict implements fl.Algorithm. The task ID is training-only (paper
// §IV), so inference conditions the generator on the mean of all task keys
// seen so far; without CDAP the plain token sequence is classified. The
// parameters are read as constants (nn.Inference, whose contract applies).
func (r *RefFiL) Predict(x *tensor.Tensor) ([]int, error) {
	return nn.Inference(r.Global(), func() ([]int, error) {
		tokens, err := r.backbone.Tokens(&nn.Ctx{Train: false}, autograd.Constant(x))
		if err != nil {
			return nil, err
		}
		var prompts *autograd.Value
		if r.gen != nil {
			key, err := r.gen.InferenceKey(x.Arena(), r.server.task+1)
			if err != nil {
				return nil, err
			}
			if prompts, err = r.gen.GenerateWithKey(tokens, key); err != nil {
				return nil, err
			}
		}
		logits, err := r.backbone.Classify(tokens, prompts)
		if err != nil {
			return nil, err
		}
		return tensor.ArgmaxRows(logits.T), nil
	})
}

// RefFiL's server-side state beyond Global() travels as a checkpoint dict:
// the task counter (which parameterizes the DPCL temperature decay) as a
// one-element tensor, and the clustered prompt bank as one (representatives,
// dim) matrix per class.
const (
	wireTaskKey    = "task"
	wireBankPrefix = "bank/"
)

// parseClass parses a class index exactly as strconv.Itoa spells it, so two
// entry names can never land on one class.
func parseClass(s string) (int, error) {
	k, err := strconv.Atoi(s)
	if err != nil || strconv.Itoa(k) != s {
		return 0, fmt.Errorf("core: %q is not a class index", s)
	}
	return k, nil
}

// EncodeWireState implements fl.WireStater: the task counter plus the
// clustered global prompt bank, so a networked worker's GPL and DPCL
// losses see exactly the server's Eq. 7-8 state.
func (r *RefFiL) EncodeWireState() ([]byte, error) {
	dict := map[string]*tensor.Tensor{wireTaskKey: tensor.FromSlice([]float64{float64(r.server.task)}, 1)}
	for _, k := range r.server.bank.Classes() {
		dict[wireBankPrefix+strconv.Itoa(k)] = r.server.bank.byClass[k]
	}
	return checkpoint.Marshal(dict)
}

// LoadWireState implements fl.WireStater. The new bank and counter are
// written through the shared server state, so every replica sees them.
func (r *RefFiL) LoadWireState(b []byte) error {
	dict, err := checkpoint.Unmarshal(b)
	if err != nil {
		return fmt.Errorf("core: decoding wire state: %w", err)
	}
	task, ok := dict[wireTaskKey]
	if !ok || task.Size() != 1 {
		return fmt.Errorf("core: wire state without a one-element %q tensor", wireTaskKey)
	}
	curTask := int(task.Data()[0])
	if curTask < 0 || math.Float64bits(float64(curTask)) != math.Float64bits(task.Data()[0]) {
		return fmt.Errorf("core: wire state task counter %v is not a task index", task.Data()[0])
	}
	delete(dict, wireTaskKey)
	bank := NewPromptBank(r.server.bank.dim)
	//fedvet:ignore maporder filling a map from a map is order-insensitive
	for name, m := range dict {
		class, ok := strings.CutPrefix(name, wireBankPrefix)
		if !ok {
			return fmt.Errorf("core: unexpected wire-state entry %q", name)
		}
		k, err := parseClass(class)
		if err != nil {
			return err
		}
		if m.NDim() != 2 || m.Dim(0) <= 0 || m.Dim(1) != bank.dim {
			return fmt.Errorf("core: wire state class %d has shape %v, want (rows > 0, %d)", k, m.Shape(), bank.dim)
		}
		bank.byClass[k] = m
	}
	r.server.bank, r.server.task = bank, curTask
	return nil
}

// EncodeUpload implements fl.UploadCoder for the Eq. 5 local prompt group:
// a checkpoint dict of one d-vector per class.
func (r *RefFiL) EncodeUpload(up fl.Upload) ([]byte, error) {
	pu, ok := up.(*PromptUpload)
	if !ok {
		return nil, fmt.Errorf("core: cannot encode upload of type %T", up)
	}
	dict := make(map[string]*tensor.Tensor, len(pu.ByClass))
	for k, vec := range pu.ByClass {
		dict[strconv.Itoa(k)] = tensor.FromSlice(vec, len(vec))
	}
	return checkpoint.Marshal(dict)
}

// DecodeUpload implements fl.UploadCoder.
func (r *RefFiL) DecodeUpload(b []byte) (fl.Upload, error) {
	dict, err := checkpoint.Unmarshal(b)
	if err != nil {
		return nil, fmt.Errorf("core: decoding upload: %w", err)
	}
	pu := &PromptUpload{ByClass: make(map[int][]float64, len(dict))}
	//fedvet:ignore maporder filling a map from a map is order-insensitive
	for name, vec := range dict {
		k, err := parseClass(name)
		if err != nil {
			return nil, err
		}
		if vec.NDim() != 1 || vec.Dim(0) != r.server.bank.dim {
			return nil, fmt.Errorf("core: upload class %d has shape %v, want (%d)", k, vec.Shape(), r.server.bank.dim)
		}
		pu.ByClass[k] = vec.Data()
	}
	return pu, nil
}

var _ fl.Algorithm = (*RefFiL)(nil)
var _ fl.WireStater = (*RefFiL)(nil)
var _ fl.UploadCoder = (*RefFiL)(nil)
