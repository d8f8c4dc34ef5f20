package baselines

import (
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/checkpoint"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// FedLwF adapts Learning without Forgetting to FDIL: at each new task the
// previous global model is frozen as a teacher, and local training adds a
// knowledge-distillation term that keeps the student's softened predictions
// close to the teacher's (paper §V: distillation temperature 2).
type FedLwF struct {
	backbone *model.Backbone
	teacher  *model.Backbone // nil during the first task
	hyper    TrainHyper
	// Temperature is the distillation temperature (paper default 2).
	Temperature float64
	// Lambda scales the distillation loss against cross-entropy.
	Lambda float64
}

// NewFedLwF builds the baseline with the paper's distillation defaults.
func NewFedLwF(cfg model.Config, hy TrainHyper, rng *rand.Rand) (*FedLwF, error) {
	b, err := model.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &FedLwF{backbone: b, hyper: hy, Temperature: 2, Lambda: 1}, nil
}

// Name implements fl.Algorithm.
func (f *FedLwF) Name() string { return "FedLwF" }

// Global implements fl.Algorithm.
func (f *FedLwF) Global() nn.Module { return f.backbone }

// Spawn implements fl.Algorithm. The teacher is shared by reference: it is
// frozen for the whole task stage and its eval-mode forward pass mutates
// nothing, so concurrent replicas can distill from the same instance.
func (f *FedLwF) Spawn() (fl.Algorithm, error) {
	return &FedLwF{
		backbone:    f.backbone.Clone(),
		teacher:     f.teacher,
		hyper:       f.hyper,
		Temperature: f.Temperature,
		Lambda:      f.Lambda,
	}, nil
}

// OnTaskStart implements fl.Algorithm: snapshot the global model as the
// distillation teacher before any new-domain training overwrites it.
func (f *FedLwF) OnTaskStart(task int) error {
	if task == 0 {
		return nil
	}
	f.teacher = f.backbone.Clone()
	return nil
}

// OnTaskEnd implements fl.Algorithm.
func (f *FedLwF) OnTaskEnd(task int, sample *data.Dataset) error { return nil }

// LocalTrain implements fl.Algorithm.
func (f *FedLwF) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	nnCtx := &nn.Ctx{Train: true}
	evalCtx := &nn.Ctx{Train: false}
	err := localSGD(ctx, f.backbone.Params(), f.hyper, func(b data.Batch) (*autograd.Value, error) {
		logits, err := f.backbone.Forward(nnCtx, autograd.Constant(b.X), nil)
		if err != nil {
			return nil, err
		}
		loss, err := autograd.SoftmaxCrossEntropy(logits, b.Y)
		if err != nil {
			return nil, err
		}
		if f.teacher != nil {
			tLogits, err := f.teacher.Forward(evalCtx, autograd.Constant(b.X), nil)
			if err != nil {
				return nil, err
			}
			kd, err := autograd.DistillLoss(logits, tLogits.T, f.Temperature)
			if err != nil {
				return nil, err
			}
			loss = autograd.Add(loss, autograd.Scale(kd, f.Lambda))
		}
		return loss, nil
	})
	return nil, err
}

// ServerRound implements fl.Algorithm.
func (f *FedLwF) ServerRound(task, round int, uploads []fl.Upload) error { return nil }

// Predict implements fl.Algorithm.
func (f *FedLwF) Predict(x *tensor.Tensor) ([]int, error) {
	return f.backbone.Predict(x, nil)
}

// EncodeWireState implements fl.WireStater: the frozen distillation
// teacher's state dict in the checkpoint format (an empty dict during the
// first task, when no teacher exists yet).
func (f *FedLwF) EncodeWireState() ([]byte, error) {
	dict := map[string]*tensor.Tensor{}
	if f.teacher != nil {
		dict = nn.StateDict(f.teacher)
	}
	return checkpoint.Marshal(dict)
}

// LoadWireState implements fl.WireStater: reconstruct the teacher from the
// broadcast state dict, so a networked worker distills from exactly the
// snapshot the coordinator froze at task start.
func (f *FedLwF) LoadWireState(b []byte) error {
	dict, err := checkpoint.Unmarshal(b)
	if err != nil {
		return err
	}
	if len(dict) == 0 {
		f.teacher = nil
		return nil
	}
	if f.teacher == nil {
		f.teacher = f.backbone.Clone()
	}
	return nn.LoadStateDict(f.teacher, dict)
}

var _ fl.Algorithm = (*FedLwF)(nil)
var _ fl.WireStater = (*FedLwF)(nil)
