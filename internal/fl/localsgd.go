package fl

import (
	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/nn"
	"reffil/internal/opt"
)

// Momentum, WeightDecay and ClipNorm are the paper's local-SGD setup, the
// one every method trains with.
const (
	Momentum    = 0.9
	WeightDecay = 1e-4
	ClipNorm    = 5.0
)

// SGD is the local-training loop every method shares: ctx.Epochs passes over
// ctx.Data in shuffled minibatches of ctx.BatchSize drawn from ctx.Rng, each
// step zeroing the gradients of params, differentiating the scalar that loss
// builds for the batch, clipping the global gradient norm to clipNorm (0
// disables clipping) and applying one SGD update at ctx.LR. A method is what
// its loss closure adds to cross-entropy; epoch lets it act on the last pass
// (RefFiL collects its Eq. 5 prompt groups there).
//
// Each epoch shuffles with one ctx.Rng.Perm, exactly as data.Batches does,
// and each batch is collated into ctx.Arena just before its step, so every
// tensor the step holds — the batch, the forward pass, the tape's
// gradients, backward's temporaries — is drawn from the arena, which is
// reset after the update. Nothing loss builds may therefore outlive its
// step, except as a copy (Clone, or plain numbers as RefFiL's prompt
// collection takes).
//
// What outlives a step but not the job — each parameter's Grad, drawn the
// first time a step reaches it, and the optimiser's velocities — is drawn
// from ctx.JobArena (opt.SGD.DrawFrom), never from the step arena. The
// parameters are unbound from it when SGD returns, and their Grads stay
// readable until the job arena's next Reset. Parameters themselves are heap
// tensors and in neither arena.
func (ctx *LocalContext) SGD(params []nn.Param, momentum, weightDecay, clipNorm float64,
	loss func(epoch int, b data.Batch) (*autograd.Value, error)) error {
	sgd, err := opt.NewSGD(params, ctx.LR, momentum, weightDecay)
	if err != nil {
		return err
	}
	sgd.DrawFrom(ctx.JobArena)
	defer sgd.DrawFrom(nil)
	defer ctx.Arena.Reset() // a step that fails still hands its tensors back
	for epoch := 0; epoch < ctx.Epochs; epoch++ {
		batches, err := data.BatchIndices(ctx.Data, ctx.BatchSize, ctx.Rng)
		if err != nil {
			return err
		}
		for _, idx := range batches {
			sgd.ZeroGrad()
			l, err := loss(epoch, data.Collate(ctx.Arena, ctx.Data, idx))
			if err != nil {
				return err
			}
			if err := autograd.Backward(l); err != nil {
				return err
			}
			if clipNorm > 0 {
				opt.ClipGradNorm(params, clipNorm)
			}
			sgd.Step()
			ctx.Arena.Reset()
		}
	}
	return nil
}
