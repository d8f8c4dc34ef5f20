// Package fl implements the federated domain-incremental learning runtime
// of the paper: FedAvg aggregation weighted by local dataset size
// (Algorithm 1 line 8), random participant selection per communication
// round, and the Old / In-between / New client-increment strategy of
// §II ("Client increment strategy").
//
// The runtime is algorithm-agnostic: RefFiL and every baseline plug in
// through the Algorithm interface, so all methods run under byte-identical
// federation mechanics — the comparison the paper's tables rely on.
package fl

import (
	"fmt"
	"maps"
	"slices"

	"reffil/internal/fl/internal/poison"
	"reffil/internal/tensor"
)

// Accumulator is the streaming form of FedAvg aggregation: client updates
// fold in one at a time as sum_m w_m * dict_m, and Finalize divides by the
// weight total. The accumulator holds O(1) state dicts regardless of cohort
// size — the running sums plus a reference to the first folded dict — which
// is what lets the engine aggregate acks as they arrive instead of
// buffering every selected client's full state until the round ends.
//
// Bit-identity contract: the result depends on the order dicts are folded
// in, so the fold order must be fixed (the engine folds in job order, never
// arrival order).
//
// Unanimity short-circuit: a key on which every folded dict agrees bit for
// bit finalizes to the first dict's own tensor instead of the accumulated
// sum — the weighted average of identical values is exactly that value,
// while the floating-point normalization would perturb it by an ulp per
// round. This keeps frozen parameters bit-stable across rounds (prompt
// methods freeze the whole backbone), which is both mathematically exact
// and what lets the delta wire codec skip them. The witness is maintained
// per key: while a key is unanimous no sum is materialized at all; the
// first fold that disagrees materializes the key's sum and replays the
// earlier (bit-identical) contributions from the retained first dict.
//
// One Accumulator serves a whole run: Reset starts the next round's fold and
// keeps each sum tensor a broken key materialized, so a key that breaks
// again sums into the same storage, zero-filled first exactly as a new
// tensor starts — the bits are those of a fresh Accumulator.
//
// Folded dicts are borrowed, not copied. A later dict is read only during
// its Fold. The first is retained: Fold replays it when a key's unanimity
// breaks, and Finalize's result may alias its tensors. So the first folded
// dict must stay unwritten for as long as the result is read — the engine
// releases it only after loading the aggregate into the global model.
//
// An Accumulator is not safe for concurrent Folds.
type Accumulator struct {
	names []string // sorted keys, fixed by the first fold
	first map[string]*tensor.Tensor
	// sums holds each key's running sum, nil until the key's unanimity
	// first breaks. Reset keeps the tensors for the next fold.
	sums      []*tensor.Tensor
	unanimous []bool
	weights   []float64 // per folded dict, for unanimity-break replay
	total     float64
}

// NewAccumulator returns an empty streaming FedAvg fold.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Reset empties the accumulator for the next fold. It keeps the sum tensors
// of the keys whose unanimity broke, which a later Fold zero-fills and sums
// into instead of allocating, so the aggregate the last Finalize returned
// is invalid once Reset runs: the caller must be done reading it (the
// engine has loaded it into the global model by then). Reset drops the
// reference to the first folded dict.
func (a *Accumulator) Reset() {
	for _, s := range a.sums {
		if s != nil {
			poison.Tensor(s)
		}
	}
	a.first = nil
	a.weights = a.weights[:0]
	a.total = 0
}

// Folded reports how many client updates have been folded in.
func (a *Accumulator) Folded() int { return len(a.weights) }

// UnanimityStats reports how many keys are still bit-identically unanimous
// across every folded dict and how many broke unanimity (materializing an
// accumulated sum). Valid after Finalize too — Finalize reads the witness
// without mutating it. Zero/zero before the first fold after a Reset too.
func (a *Accumulator) UnanimityStats() (unanimousKeys, brokenKeys int) {
	if a.first == nil {
		return 0, 0
	}
	for _, u := range a.unanimous {
		if u {
			unanimousKeys++
		} else {
			brokenKeys++
		}
	}
	return
}

// Fold adds one client's update with the given positive FedAvg weight.
// The first folded dict fixes the key set and shapes, and every later dict
// must agree exactly.
func (a *Accumulator) Fold(dict map[string]*tensor.Tensor, w float64) error {
	n := len(a.weights)
	if w <= 0 {
		return fmt.Errorf("fl: non-positive aggregation weight %v for client %d", w, n)
	}
	if a.first == nil {
		if !sameKeys(a.names, dict) {
			// A new key set: the kept sums belong to the old one.
			a.names = slices.Sorted(maps.Keys(dict))
			a.sums = make([]*tensor.Tensor, len(a.names))
			a.unanimous = make([]bool, len(a.names))
		}
		a.first = dict
		for k := range a.unanimous {
			a.unanimous[k] = true
		}
	} else if len(dict) != len(a.first) {
		return fmt.Errorf("fl: client %d update has %d entries, want %d", n, len(dict), len(a.first))
	}

	for k, name := range a.names {
		first := a.first[name]
		src, ok := dict[name]
		if !ok {
			return fmt.Errorf("fl: client %d update missing entry %q", n, name)
		}
		if !src.SameShape(first) {
			return fmt.Errorf("fl: client %d entry %q has shape %v, want %v", n, name, src.Shape(), first.Shape())
		}
		if a.unanimous[k] {
			if n == 0 || src.EqualBits(first) {
				continue // still unanimous: no sum materialized
			}
			// First disagreement: materialize the sum and replay the
			// earlier contributions. Each was bit-identical to first, so
			// adding w_j*first in fold order reproduces the exact
			// accumulation a non-unanimous key would have seen.
			a.unanimous[k] = false
			sum := a.sums[k]
			if sum == nil || !sum.SameShape(first) {
				sum = tensor.NewLike(first)
				a.sums[k] = sum
			} else {
				sum.Zero()
			}
			for j := 0; j < n; j++ {
				sum.AddScaledInPlace(a.weights[j], first)
			}
		}
		a.sums[k].AddScaledInPlace(w, src)
	}
	a.weights = append(a.weights, w)
	a.total += w
	return nil
}

// Finalize normalizes the fold into the aggregate dict: accumulated keys
// are scaled by 1/total in place, unanimous keys come back as the first
// folded dict's tensors, uncopied. The result may therefore alias the first
// folded dict; read it, never write it. The other returned tensors are the
// accumulator's sums, valid until the next Reset. Call Finalize once per
// fold: a second call would scale the sums again.
func (a *Accumulator) Finalize() (map[string]*tensor.Tensor, error) {
	if len(a.weights) == 0 {
		return nil, fmt.Errorf("fl: no client updates to aggregate")
	}
	inv := 1 / a.total
	out := make(map[string]*tensor.Tensor, len(a.names))
	for k, name := range a.names {
		if a.unanimous[k] {
			out[name] = a.first[name]
			continue
		}
		a.sums[k].ScaleInPlace(inv)
		out[name] = a.sums[k]
	}
	return out, nil
}

// sameKeys reports whether dict's key set is exactly names.
func sameKeys(names []string, dict map[string]*tensor.Tensor) bool {
	if len(names) != len(dict) {
		return false
	}
	for _, name := range names {
		if _, ok := dict[name]; !ok {
			return false
		}
	}
	return true
}
