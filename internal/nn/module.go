// Package nn provides neural-network layers built on the autograd tape:
// linear and convolutional layers, batch/layer normalization, multi-head
// self-attention, residual blocks and the ResNet10 feature extractor the
// paper uses, plus the frozen patch-embedding tokenizer.
//
// Layers are Modules: they expose named trainable parameters and named
// non-trainable buffers (e.g. BatchNorm running statistics) so that the
// federated runtime can average, serialize and transplant model state.
package nn

import (
	"fmt"
	"sort"

	"reffil/internal/autograd"
	"reffil/internal/tensor"
)

// Param is a named trainable tensor.
type Param struct {
	Name  string
	Value *autograd.Value
}

// Buffer is named non-trainable state that still travels with the model,
// such as BatchNorm running statistics.
type Buffer struct {
	Name string
	T    *tensor.Tensor
}

// Module is anything carrying trainable parameters and state buffers.
type Module interface {
	// Params returns the module's trainable parameters in a stable order.
	Params() []Param
	// Buffers returns the module's non-trainable state in a stable order.
	Buffers() []Buffer
}

// lists is the Module half of every layer of this package: its Params and
// Buffers, built once when the layer is constructed or cloned. A layer's
// layout never changes after that — Freeze and Inference change only the
// leaves' flags, and Linear.Freeze, which turns weights into buffers, runs
// before the layer is used and rebuilds them — so reading them allocates
// nothing. Both lists are capacity-capped: a caller's append copies them
// instead of writing into the layer's own, and callers must not write
// their elements.
type lists struct {
	params  []Param
	buffers []Buffer
}

// Params implements Module.
func (l *lists) Params() []Param { return l.params }

// Buffers implements Module.
func (l *lists) Buffers() []Buffer { return l.buffers }

// set records a layer's lists, capped at their lengths.
func (l *lists) set(ps []Param, bs []Buffer) {
	l.params, l.buffers = ps[:len(ps):len(ps)], bs[:len(bs):len(bs)]
}

// Ctx carries per-forward-pass flags through layer stacks.
type Ctx struct {
	// Train selects training behaviour (batch statistics in BatchNorm).
	Train bool
}

// StateDict flattens a module's parameters and buffers into a name->tensor
// map. Tensors are cloned so the caller owns them.
func StateDict(m Module) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor)
	for _, p := range m.Params() {
		out[p.Name] = p.Value.T.Clone()
	}
	for _, b := range m.Buffers() {
		out[b.Name] = b.T.Clone()
	}
	return out
}

// Tensors maps a module's parameter and buffer names to the module's own
// tensors, uncopied, so every later write to the module shows through it.
func Tensors(m Module) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor)
	for _, p := range m.Params() {
		out[p.Name] = p.Value.T
	}
	for _, b := range m.Buffers() {
		out[b.Name] = b.T
	}
	return out
}

// LoadStateDict copies tensors from the dict into the module's parameters
// and buffers. Every entry in the module must be present with a matching
// shape; extra dict entries are an error too, so silent drift is impossible.
func LoadStateDict(m Module, dict map[string]*tensor.Tensor) error {
	used := make(map[string]bool, len(dict))
	apply := func(name string, dst *tensor.Tensor) error {
		src, ok := dict[name]
		if !ok {
			return fmt.Errorf("nn: state dict missing entry %q", name)
		}
		if !src.SameShape(dst) {
			return fmt.Errorf("nn: state dict entry %q has shape %v, want %v", name, src.Shape(), dst.Shape())
		}
		dst.CopyFrom(src)
		used[name] = true
		return nil
	}
	for _, p := range m.Params() {
		if err := apply(p.Name, p.Value.T); err != nil {
			return err
		}
	}
	for _, b := range m.Buffers() {
		if err := apply(b.Name, b.T); err != nil {
			return err
		}
	}
	if len(used) != len(dict) {
		// Report the smallest unknown key so the error is the same on
		// every run regardless of map iteration order.
		unknown := make([]string, 0, len(dict)-len(used))
		//fedvet:ignore maporder collects the full unknown-key set, sorted before any is reported
		for name := range dict {
			if !used[name] {
				unknown = append(unknown, name)
			}
		}
		sort.Strings(unknown)
		return fmt.Errorf("nn: state dict has unknown entry %q", unknown[0])
	}
	return nil
}

// Inference runs f with every parameter of m read as a constant: each
// parameter leaf is marked as not requiring grad for the call and restored
// on return, so the forward passes f runs record no backward state for the
// parameters (Conv2D then releases each image's columns at once) and leave
// every Grad as it was. The flags live on m's own parameters, so the call
// must not overlap anything else that uses them — Spawn, which clones the
// flags, LocalTrain, or another Inference on m — on any goroutine. The
// engine evaluates serially between rounds, which satisfies this.
func Inference[T any](m Module, f func() (T, error)) (T, error) {
	ps := m.Params()
	req := make([]bool, len(ps))
	for i, p := range ps {
		req[i] = p.Value.RequiresGrad()
		p.Value.SetRequiresGrad(false)
	}
	defer func() {
		for i, p := range ps {
			p.Value.SetRequiresGrad(req[i])
		}
	}()
	return f()
}

// Freeze marks every parameter of m as not requiring grad for good, for a
// module that is only ever run forward (LwF's distillation teacher). Only
// the leaves' flags change: m's Params and Buffers, and so its state dict,
// keep their layout.
func Freeze(m Module) {
	for _, p := range m.Params() {
		p.Value.SetRequiresGrad(false)
	}
}

// ZeroGrads clears accumulated gradients on all of a module's parameters.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.Value.ZeroGrad()
	}
}

// Modules combines several modules into one (e.g. a backbone plus a prompt
// generator aggregated together by FedAvg).
type Modules []Module

// Params implements Module.
func (m Modules) Params() []Param {
	var out []Param
	for _, mod := range m {
		out = append(out, mod.Params()...)
	}
	return out
}

// Buffers implements Module.
func (m Modules) Buffers() []Buffer {
	var out []Buffer
	for _, mod := range m {
		out = append(out, mod.Buffers()...)
	}
	return out
}

var _ Module = (Modules)(nil)

// join concatenates submodules' lists into one list of exactly their total
// length, nil when that is 0.
func join[E any](lists ...[]E) []E {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	if n == 0 {
		return nil
	}
	out := make([]E, 0, n)
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}
