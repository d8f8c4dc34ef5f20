package main

import (
	"fmt"
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// synthShape sizes the stub model: keys tensors of elems float64 each, of
// which every update perturbs a window of changed keys.
type synthShape struct {
	keys, elems, changed int
}

// synthScale is the perturbation's width: small against weights spread over
// [-1, 1), so an update flips low mantissa bits the way an SGD step does.
const synthScale = 1e-3

// synthAlg is the benchmark-owned stub fl.Algorithm behind the tcp_synth_*
// workloads. It has a large state and no compute: LocalTrain adds a seeded
// perturbation to a window of keys, so a round's cost is moving, diffing,
// framing and folding state — the communication stack with the kernels
// taken out.
//
// The window is chosen from a step counter that lives in the state dict
// itself. Every client of a round increments it identically, FedAvg's
// unanimity short-circuit keeps it exact, and it travels with the broadcast,
// so coordinator and workers agree on the window without any side channel
// and the keys outside it stay bit-identical across the whole round.
type synthAlg struct {
	shape synthShape
	// seed, with the client RNG the engine hands to LocalTrain, decides the
	// perturbation; it also seeded the initial weights.
	seed    int64
	weights []*autograd.Value
	step    *autograd.Value
}

func newSynthAlg(shape synthShape, seed int64) (*synthAlg, error) {
	if shape.keys <= 0 || shape.elems <= 0 || shape.changed <= 0 || shape.changed > shape.keys {
		return nil, fmt.Errorf("synth: invalid shape %+v", shape)
	}
	s := &synthAlg{shape: shape, seed: seed, step: autograd.Param(tensor.New(1))}
	state := uint64(seed)
	for k := 0; k < shape.keys; k++ {
		w := tensor.New(1, shape.elems)
		state = fillUniform(w.Data(), state)
		s.weights = append(s.weights, autograd.Param(w))
	}
	return s, nil
}

// fillUniform writes a seeded sequence of values in [-1, 1) and returns the
// generator's state. Constructing the stub is part of setup_s, and drawing a
// million normal deviates per model from math/rand took ten times as long as
// everything the system under test does between launch and round 0; a
// linear congruential step per element does not.
func fillUniform(d []float64, state uint64) uint64 {
	for i := range d {
		state = state*6364136223846793005 + 1442695040888963407
		d[i] = float64(int64(state)>>11) / (1 << 52)
	}
	return state
}

func (s *synthAlg) Name() string { return "synth" }

// Global implements fl.Algorithm; the receiver is its own module.
func (s *synthAlg) Global() nn.Module { return s }

// Params implements nn.Module: w000..wNNN plus the step counter.
func (s *synthAlg) Params() []nn.Param {
	ps := make([]nn.Param, 0, len(s.weights)+1)
	for k, w := range s.weights {
		ps = append(ps, nn.Param{Name: fmt.Sprintf("w%03d", k), Value: w})
	}
	return append(ps, nn.Param{Name: "step", Value: s.step})
}

// Buffers implements nn.Module.
func (s *synthAlg) Buffers() []nn.Buffer { return nil }

// Spawn implements fl.Algorithm: a deep copy sharing no tensors.
func (s *synthAlg) Spawn() (fl.Algorithm, error) {
	rep := &synthAlg{shape: s.shape, seed: s.seed, step: s.step.CloneLeaf(), weights: make([]*autograd.Value, len(s.weights))}
	for k, w := range s.weights {
		rep.weights[k] = w.CloneLeaf()
	}
	return rep, nil
}

func (s *synthAlg) OnTaskStart(task int) error                     { return nil }
func (s *synthAlg) OnTaskEnd(task int, sample *data.Dataset) error { return nil }

// LocalTrain perturbs every element of the current window. The engine seeds
// ctx.Rng from (client, task, round); mixed with the algorithm's own seed
// the update is a pure function of those four and of the broadcast state.
func (s *synthAlg) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	rng := rand.New(rand.NewSource(s.seed ^ ctx.Rng.Int63()))
	step := int(s.step.T.Data()[0])
	first := step * s.shape.changed % s.shape.keys
	for i := 0; i < s.shape.changed; i++ {
		d := s.weights[(first+i)%s.shape.keys].T.Data()
		for j := range d {
			d[j] += synthScale * (rng.Float64() - 0.5)
		}
	}
	s.step.T.Data()[0] = float64(step + 1)
	return nil, nil
}

func (s *synthAlg) ServerRound(task, round int, uploads []fl.Upload) error { return nil }

// Predict answers class 0 for every row: the engine's evaluation needs a
// prediction per example, and the stub has nothing to classify with.
func (s *synthAlg) Predict(x *tensor.Tensor) ([]int, error) {
	return make([]int, x.Dim(0)), nil
}

var _ fl.Algorithm = (*synthAlg)(nil)
