package baselines

import (
	"fmt"
	"strings"

	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// regulariser is a forgetting-mitigation mechanism that leaves the model's
// shape alone: it snapshots something of the global model at a task
// boundary and adds a term to the local loss that holds training to it.
// That snapshot is server-side state outside Global(), so the regulariser
// also owns its wire form (a checkpoint dict; see Regularised).
type regulariser interface {
	// taskStart and taskEnd run on the server's instance, serially,
	// around each task stage, with the current global backbone.
	taskStart(task int, global *model.Backbone)
	taskEnd(global *model.Backbone, sample *data.Dataset) error
	// penalise returns loss plus the regulariser's term for one batch x of
	// a client's replica, given its parameters and training-mode logits.
	penalise(loss *autograd.Value, student []nn.Param, x *tensor.Tensor, logits *autograd.Value) (*autograd.Value, error)
	wireState() map[string]*tensor.Tensor
	loadWireState(dict map[string]*tensor.Tensor, global *model.Backbone) error
}

// lwf adapts Learning without Forgetting to FDIL: at each new task the
// previous global model is frozen as a teacher, and local training adds a
// knowledge-distillation term that keeps the student's softened predictions
// close to the teacher's (paper §V: distillation temperature 2).
type lwf struct {
	teacher *model.Backbone // nil during the first task
}

// lwfTemperature is the distillation temperature; lwfLambda scales the
// distillation loss against cross-entropy.
const (
	lwfTemperature = 2
	lwfLambda      = 1
)

// taskStart snapshots the global model as the distillation teacher before
// any new-domain training overwrites it. Nothing ever differentiates the
// teacher, so its parameters are frozen for good (nn.Freeze): its forward
// pass records no backward state and Conv2D drops its columns at once.
func (l *lwf) taskStart(task int, global *model.Backbone) {
	if task > 0 {
		l.teacher = global.Clone()
		nn.Freeze(l.teacher)
	}
}

func (l *lwf) taskEnd(*model.Backbone, *data.Dataset) error { return nil }

// penalise adds the distillation term. The teacher's eval-mode forward pass
// mutates nothing — its parameters are frozen leaves — so concurrent
// replicas distill from the same instance.
func (l *lwf) penalise(loss *autograd.Value, _ []nn.Param, x *tensor.Tensor, logits *autograd.Value) (*autograd.Value, error) {
	if l.teacher == nil {
		return loss, nil
	}
	tLogits, err := l.teacher.Forward(&nn.Ctx{Train: false}, autograd.Constant(x), nil)
	if err != nil {
		return nil, err
	}
	kd, err := autograd.DistillLoss(logits, tLogits.T, lwfTemperature)
	if err != nil {
		return nil, err
	}
	return autograd.Add(loss, autograd.Scale(kd, lwfLambda)), nil
}

// wireState is the frozen teacher's state dict (empty during the first
// task, when no teacher exists yet).
func (l *lwf) wireState() map[string]*tensor.Tensor {
	if l.teacher == nil {
		return map[string]*tensor.Tensor{}
	}
	return nn.StateDict(l.teacher)
}

// loadWireState reconstructs the teacher from the broadcast state dict, so
// a networked worker distills from exactly the snapshot the coordinator
// froze at task start — frozen here too.
func (l *lwf) loadWireState(dict map[string]*tensor.Tensor, global *model.Backbone) error {
	if len(dict) == 0 {
		l.teacher = nil
		return nil
	}
	if l.teacher == nil {
		l.teacher = global.Clone()
		nn.Freeze(l.teacher)
	}
	return nn.LoadStateDict(l.teacher, dict)
}

// ewc adapts Elastic Weight Consolidation to FDIL: after each task the
// server estimates the diagonal Fisher information of the global model on a
// sample of the task's data, and local training penalizes movement of
// parameters in proportion to their accumulated importance (paper §V:
// constraint factor λ = 300).
type ewc struct {
	lambda float64
	// fisher and ref hold the online-EWC consolidated importance and
	// anchor values, keyed like the parameter list.
	fisher map[string]*tensor.Tensor
	ref    map[string]*tensor.Tensor
}

// ewcFisherBatches bounds how many batches the consolidation pass uses.
const ewcFisherBatches = 4

func (e *ewc) taskStart(int, *model.Backbone) {}

// taskEnd estimates the diagonal Fisher on a sample of the finished task's
// data and consolidates it (online EWC: the new Fisher adds onto the old,
// the anchor moves to the current weights).
func (e *ewc) taskEnd(global *model.Backbone, sample *data.Dataset) error {
	params := global.Params()
	newFisher := make(map[string]*tensor.Tensor, len(params))
	for _, p := range params {
		newFisher[p.Name] = tensor.NewLike(p.Value.T)
	}
	batches, err := data.BatchIndices(sample, 16, nil)
	if err != nil {
		return err
	}
	if len(batches) > ewcFisherBatches {
		batches = batches[:ewcFisherBatches]
	}
	nnCtx := &nn.Ctx{Train: false}
	for _, idx := range batches {
		b := data.Collate(nil, sample, idx)
		nn.ZeroGrads(global)
		logits, err := global.Forward(nnCtx, autograd.Constant(b.X), nil)
		if err != nil {
			return err
		}
		loss, err := autograd.SoftmaxCrossEntropy(logits, b.Y)
		if err != nil {
			return err
		}
		if err := autograd.Backward(loss); err != nil {
			return err
		}
		for _, p := range params {
			if p.Value.Grad == nil {
				continue
			}
			acc := newFisher[p.Name].Data()
			for i, g := range p.Value.Grad.Data() {
				acc[i] += g * g
			}
		}
	}
	nn.ZeroGrads(global)
	// Consolidate: running sum of Fishers, anchor at the post-task weights.
	if e.fisher == nil {
		e.fisher = make(map[string]*tensor.Tensor, len(params))
		e.ref = make(map[string]*tensor.Tensor, len(params))
	}
	for _, p := range params {
		nf := newFisher[p.Name]
		nf.ScaleInPlace(1 / float64(len(batches)))
		if old, ok := e.fisher[p.Name]; ok {
			nf.AddInPlace(old)
		}
		e.fisher[p.Name] = nf
		e.ref[p.Name] = p.Value.T.Clone()
	}
	return nil
}

// penalise adds λ·F·(θ−θ*)² for every consolidated parameter.
func (e *ewc) penalise(loss *autograd.Value, student []nn.Param, _ *tensor.Tensor, _ *autograd.Value) (*autograd.Value, error) {
	if e.fisher == nil {
		return loss, nil
	}
	for _, p := range student {
		fi, ok := e.fisher[p.Name]
		if !ok {
			continue
		}
		// Wrapping the Fisher map into the step's arena puts λ·F and the
		// penalty's own tensors there.
		pen, err := autograd.L2Penalty(p.Value, tensor.Scale(loss.T.Arena().Wrap(fi), e.lambda), e.ref[p.Name])
		if err != nil {
			return nil, err
		}
		loss = autograd.Add(loss, pen)
	}
	return loss, nil
}

// wireState packs the consolidated Fisher and anchor maps into one dict
// under "fisher/" and "ref/" prefixes (empty before the first taskEnd).
func (e *ewc) wireState() map[string]*tensor.Tensor {
	dict := make(map[string]*tensor.Tensor, 2*len(e.fisher))
	//fedvet:ignore maporder map-to-map rekey is order-insensitive; checkpoint.Marshal sorts keys before encoding
	for k, v := range e.fisher {
		dict["fisher/"+k] = v
	}
	//fedvet:ignore maporder map-to-map rekey is order-insensitive; checkpoint.Marshal sorts keys before encoding
	for k, v := range e.ref {
		dict["ref/"+k] = v
	}
	return dict
}

func (e *ewc) loadWireState(dict map[string]*tensor.Tensor, _ *model.Backbone) error {
	if len(dict) == 0 {
		e.fisher, e.ref = nil, nil
		return nil
	}
	fisher := make(map[string]*tensor.Tensor)
	ref := make(map[string]*tensor.Tensor)
	//fedvet:ignore maporder splitting one map into two by key prefix is order-insensitive
	for k, v := range dict {
		if name, ok := strings.CutPrefix(k, "fisher/"); ok {
			fisher[name] = v
		} else if name, ok := strings.CutPrefix(k, "ref/"); ok {
			ref[name] = v
		} else {
			return fmt.Errorf("baselines: unexpected EWC wire-state entry %q", k)
		}
	}
	e.fisher, e.ref = fisher, ref
	return nil
}
