package baselines

import (
	"fmt"
	"math/rand"
	"strings"

	"reffil/internal/autograd"
	"reffil/internal/checkpoint"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// FedEWC adapts Elastic Weight Consolidation to FDIL: after each task the
// server estimates the diagonal Fisher information of the global model on a
// sample of the task's data, and local training penalizes movement of
// parameters in proportion to their accumulated importance (paper §V:
// constraint factor λ = 300).
type FedEWC struct {
	backbone *model.Backbone
	hyper    TrainHyper
	// Lambda is the EWC constraint factor (paper default 300).
	Lambda float64
	// FisherBatches bounds how many batches the consolidation pass uses.
	FisherBatches int

	// fisher and ref hold the online-EWC consolidated importance and
	// anchor values, keyed like the parameter list.
	fisher map[string]*tensor.Tensor
	ref    map[string]*tensor.Tensor
}

// NewFedEWC builds the baseline with the paper's constraint factor.
func NewFedEWC(cfg model.Config, hy TrainHyper, rng *rand.Rand) (*FedEWC, error) {
	b, err := model.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &FedEWC{
		backbone:      b,
		hyper:         hy,
		Lambda:        300,
		FisherBatches: 4,
	}, nil
}

// Name implements fl.Algorithm.
func (f *FedEWC) Name() string { return "FedEWC" }

// Global implements fl.Algorithm.
func (f *FedEWC) Global() nn.Module { return f.backbone }

// Spawn implements fl.Algorithm. The consolidated Fisher and anchor maps
// are shared by reference: local training only reads them, and they change
// only in OnTaskEnd, which runs serially between rounds.
func (f *FedEWC) Spawn() (fl.Algorithm, error) {
	return &FedEWC{
		backbone:      f.backbone.Clone(),
		hyper:         f.hyper,
		Lambda:        f.Lambda,
		FisherBatches: f.FisherBatches,
		fisher:        f.fisher,
		ref:           f.ref,
	}, nil
}

// OnTaskStart implements fl.Algorithm.
func (f *FedEWC) OnTaskStart(task int) error { return nil }

// OnTaskEnd implements fl.Algorithm: estimate the diagonal Fisher on a
// sample of the finished task's data and consolidate it (online EWC: the
// new Fisher adds onto the old, the anchor moves to the current weights).
func (f *FedEWC) OnTaskEnd(task int, sample *data.Dataset) error {
	params := f.backbone.Params()
	newFisher := make(map[string]*tensor.Tensor, len(params))
	for _, p := range params {
		newFisher[p.Name] = tensor.New(p.Value.T.Shape()...)
	}
	batches, err := data.EvalBatches(sample, 16)
	if err != nil {
		return err
	}
	if len(batches) > f.FisherBatches {
		batches = batches[:f.FisherBatches]
	}
	nnCtx := &nn.Ctx{Train: false}
	seen := 0
	for _, b := range batches {
		nn.ZeroGrads(f.backbone)
		logits, err := f.backbone.Forward(nnCtx, autograd.Constant(b.X), nil)
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
			acc := newFisher[p.Name]
			g := p.Value.Grad.Data()
			for i := range g {
				acc.Data()[i] += g[i] * g[i]
			}
		}
		seen++
	}
	nn.ZeroGrads(f.backbone)
	if seen == 0 {
		return nil
	}
	// Consolidate: running sum of Fishers, anchor at the post-task weights.
	if f.fisher == nil {
		f.fisher = make(map[string]*tensor.Tensor, len(params))
		f.ref = make(map[string]*tensor.Tensor, len(params))
	}
	for _, p := range params {
		nf := newFisher[p.Name]
		nf.ScaleInPlace(1 / float64(seen))
		if old, ok := f.fisher[p.Name]; ok {
			nf.AddInPlace(old)
		}
		f.fisher[p.Name] = nf
		f.ref[p.Name] = p.Value.T.Clone()
	}
	return nil
}

// LocalTrain implements fl.Algorithm.
func (f *FedEWC) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	params := f.backbone.Params()
	nnCtx := &nn.Ctx{Train: true}
	err := localSGD(ctx, params, f.hyper, func(b data.Batch) (*autograd.Value, error) {
		logits, err := f.backbone.Forward(nnCtx, autograd.Constant(b.X), nil)
		if err != nil {
			return nil, err
		}
		loss, err := autograd.SoftmaxCrossEntropy(logits, b.Y)
		if err != nil {
			return nil, err
		}
		if f.fisher != nil {
			for _, p := range params {
				fi, ok := f.fisher[p.Name]
				if !ok {
					continue
				}
				w := tensor.Scale(fi, f.Lambda)
				pen, err := autograd.L2Penalty(p.Value, w, f.ref[p.Name])
				if err != nil {
					return nil, err
				}
				loss = autograd.Add(loss, pen)
			}
		}
		return loss, nil
	})
	return nil, err
}

// ServerRound implements fl.Algorithm.
func (f *FedEWC) ServerRound(task, round int, uploads []fl.Upload) error { return nil }

// Predict implements fl.Algorithm.
func (f *FedEWC) Predict(x *tensor.Tensor) ([]int, error) {
	return f.backbone.Predict(x, nil)
}

// EncodeWireState implements fl.WireStater: the consolidated Fisher and
// anchor maps, packed into one checkpoint-format dict under "fisher/" and
// "ref/" prefixes (empty before the first OnTaskEnd).
func (f *FedEWC) EncodeWireState() ([]byte, error) {
	dict := make(map[string]*tensor.Tensor, 2*len(f.fisher))
	//fedvet:ignore maporder map-to-map rekey is order-insensitive; checkpoint.Marshal sorts keys before encoding
	for k, v := range f.fisher {
		dict["fisher/"+k] = v
	}
	//fedvet:ignore maporder map-to-map rekey is order-insensitive; checkpoint.Marshal sorts keys before encoding
	for k, v := range f.ref {
		dict["ref/"+k] = v
	}
	return checkpoint.Marshal(dict)
}

// LoadWireState implements fl.WireStater.
func (f *FedEWC) LoadWireState(b []byte) error {
	dict, err := checkpoint.Unmarshal(b)
	if err != nil {
		return err
	}
	if len(dict) == 0 {
		f.fisher, f.ref = nil, nil
		return nil
	}
	fisher := make(map[string]*tensor.Tensor)
	ref := make(map[string]*tensor.Tensor)
	//fedvet:ignore maporder splitting one map into two by key prefix is order-insensitive
	for k, v := range dict {
		switch {
		case strings.HasPrefix(k, "fisher/"):
			fisher[strings.TrimPrefix(k, "fisher/")] = v
		case strings.HasPrefix(k, "ref/"):
			ref[strings.TrimPrefix(k, "ref/")] = v
		default:
			return fmt.Errorf("baselines: unexpected EWC wire-state entry %q", k)
		}
	}
	f.fisher, f.ref = fisher, ref
	return nil
}

var _ fl.Algorithm = (*FedEWC)(nil)
var _ fl.WireStater = (*FedEWC)(nil)
