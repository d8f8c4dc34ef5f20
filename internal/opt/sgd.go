// Package opt provides the stochastic gradient descent optimizer used by
// all methods in the reproduction (the paper trains every method with SGD),
// plus gradient clipping.
package opt

import (
	"fmt"
	"math"

	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// SGD implements stochastic gradient descent with optional momentum and
// weight decay over a module's parameters.
type SGD struct {
	params      []nn.Param
	lr          float64
	momentum    float64
	weightDecay float64
	// velocity holds each parameter's momentum buffer, drawn from arena the
	// first time Step updates that parameter.
	velocity []*tensor.Tensor
	// arena is where s draws what outlives one step (see DrawFrom); nil is
	// the heap.
	arena *tensor.Arena
}

// NewSGD builds an optimizer over the given parameters.
func NewSGD(params []nn.Param, lr, momentum, weightDecay float64) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("opt: learning rate must be positive, got %v", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("opt: momentum must be in [0,1), got %v", momentum)
	}
	if weightDecay < 0 {
		return nil, fmt.Errorf("opt: weight decay must be non-negative, got %v", weightDecay)
	}
	return &SGD{
		params:      params,
		lr:          lr,
		momentum:    momentum,
		weightDecay: weightDecay,
		velocity:    make([]*tensor.Tensor, len(params)),
	}, nil
}

// DrawFrom makes s draw from a what outlives one step but not the caller's
// job: the velocities, and — through autograd's DrawGradFrom — the Grad of
// every parameter that has none yet, at the moment Backward first needs it.
// Nil, the default, is the heap. Both are still drawn lazily, so a parameter
// no step touches keeps a nil Grad and no velocity. Call DrawFrom(nil) once
// the last step is done, so that no later EnsureGrad on a parameter draws
// from an arena the caller no longer owns; what was drawn stays readable
// until a's next Reset.
func (s *SGD) DrawFrom(a *tensor.Arena) {
	s.arena = a
	for _, p := range s.params {
		p.Value.DrawGradFrom(a)
	}
}

// Step applies one update using the gradients accumulated on the parameters.
// Parameters with no gradient are skipped. Weight decay, momentum and the
// update run as one pass per element, in the order and with the roundings of
// the three tensor passes they replace (g += wd·w; v = mom·v + g; w += -lr·v)
// and without their per-step copy of every gradient; the gradients themselves
// are left as they were.
func (s *SGD) Step() {
	for i, p := range s.params {
		if p.Value.Grad == nil {
			continue
		}
		g, w := p.Value.Grad.Data(), p.Value.T.Data()
		if len(g) != len(w) {
			panic(fmt.Sprintf("opt: %s has %d gradient elements for %d weights", p.Name, len(g), len(w)))
		}
		var v []float64
		if s.momentum > 0 {
			if s.velocity[i] == nil {
				s.velocity[i] = s.arena.NewLike(p.Value.T)
			}
			v = s.velocity[i].Data()
		}
		for j, gj := range g {
			if s.weightDecay > 0 {
				gj += s.weightDecay * w[j]
			}
			if v != nil {
				// The conversion rounds the product as the separate
				// scaling pass did, so no platform fuses it with the add.
				gj = float64(v[j]*s.momentum) + gj
				v[j] = gj
			}
			w[j] += -s.lr * gj
		}
	}
}

// ZeroGrad clears gradients on all managed parameters.
func (s *SGD) ZeroGrad() {
	for _, p := range s.params {
		p.Value.ZeroGrad()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. Gradient explosion in early rounds
// of federated training otherwise derails small-batch BatchNorm models.
func ClipGradNorm(params []nn.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		n := p.Value.Grad.L2Norm()
		total += n * n
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			if p.Value.Grad != nil {
				p.Value.Grad.ScaleInPlace(scale)
			}
		}
	}
	return norm
}
