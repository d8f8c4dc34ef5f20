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
	"sort"

	"reffil/internal/parallel"
	"reffil/internal/tensor"
)

// Accumulator is the streaming form of FedAvg aggregation: client updates
// fold in one at a time as sum_m w_m * dict_m, and Finalize divides by the
// weight total. The accumulator holds O(1) state dicts regardless of cohort
// size — the running sums plus a reference to the first folded dict — which
// is what lets the engine aggregate acks as they arrive instead of
// buffering every selected client's full state until the round ends.
//
// Bit-identity contract: folding dicts 0..n-1 in order then finalizing is
// exactly WeightedAverage(dicts, weights) — WeightedAverage is implemented
// as this fold — so streaming and batch aggregation can never diverge. The
// fold order must therefore be fixed (the engine folds in job order, never
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
// first fold that disagrees allocates the accumulator and replays the
// earlier (bit-identical) contributions from the retained first dict.
//
// Folded dicts are borrowed, not copied. A later dict is read only during
// its Fold. The first is retained: Fold replays it when a key's unanimity
// breaks, and Finalize's result may alias its tensors. So the first folded
// dict must stay unwritten for as long as the result is read — the engine
// releases it only after loading the aggregate into the global model.
//
// An Accumulator is not safe for concurrent Folds; the per-key work inside
// one Fold is sharded across internal/parallel exactly like the batch path.
type Accumulator struct {
	names     []string // sorted key shard layout, fixed by the first fold
	first     map[string]*tensor.Tensor
	accs      []*tensor.Tensor // per key; nil while the key is unanimous
	unanimous []bool
	errs      []error
	weights   []float64 // per folded dict, for unanimity-break replay
	total     float64
	elems     int // total elements across keys, for the chunk grain
}

// NewAccumulator returns an empty streaming FedAvg fold.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Folded reports how many client updates have been folded in.
func (a *Accumulator) Folded() int { return len(a.weights) }

// UnanimityStats reports how many keys are still bit-identically unanimous
// across every folded dict and how many broke unanimity (materializing an
// accumulated sum). Valid after Finalize too — Finalize reads the witness
// without mutating it. Zero/zero before the first fold.
func (a *Accumulator) UnanimityStats() (unanimousKeys, brokenKeys int) {
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
// Validation matches WeightedAverage: the first folded dict fixes the key
// set and shapes, and every later dict must agree exactly.
func (a *Accumulator) Fold(dict map[string]*tensor.Tensor, w float64) error {
	n := len(a.weights)
	if w <= 0 {
		return fmt.Errorf("fl: non-positive aggregation weight %v for client %d", w, n)
	}
	if a.first == nil {
		a.names = make([]string, 0, len(dict))
		//fedvet:ignore maporder key materialization plus a commutative integer size sum; names are sorted on the next line
		for name, t := range dict {
			a.names = append(a.names, name)
			a.elems += t.Size()
		}
		sort.Strings(a.names)
		a.first = dict
		a.accs = make([]*tensor.Tensor, len(a.names))
		a.unanimous = make([]bool, len(a.names))
		for k := range a.unanimous {
			a.unanimous[k] = true
		}
		a.errs = make([]error, len(a.names))
	} else if len(dict) != len(a.first) {
		return fmt.Errorf("fl: client %d update has %d entries, want %d", n, len(dict), len(a.first))
	}

	perKeyOps := 1
	if len(a.names) > 0 {
		perKeyOps = a.elems / len(a.names)
	}
	grain := parallel.GrainForCost(perKeyOps, parallel.DefaultChunkOps)
	parallel.For(len(a.names), grain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			name := a.names[k]
			first := a.first[name]
			src, ok := dict[name]
			if !ok {
				a.errs[k] = fmt.Errorf("fl: client %d update missing entry %q", n, name)
				continue
			}
			if !src.SameShape(first) {
				a.errs[k] = fmt.Errorf("fl: client %d entry %q has shape %v, want %v", n, name, src.Shape(), first.Shape())
				continue
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
				acc := tensor.New(first.Shape()...)
				for j := 0; j < n; j++ {
					acc.AddScaledInPlace(a.weights[j], first)
				}
				a.accs[k] = acc
			}
			a.accs[k].AddScaledInPlace(w, src)
		}
	})
	var firstErr error
	for k, err := range a.errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		a.errs[k] = nil
	}
	if firstErr != nil {
		return firstErr
	}
	a.weights = append(a.weights, w)
	a.total += w
	return nil
}

// Finalize normalizes the fold into the aggregate dict: accumulated keys
// are scaled by 1/total in place, unanimous keys come back as the first
// folded dict's tensors, uncopied. The result may therefore alias the first
// folded dict; read it, never write it. The accumulator must not be reused
// afterwards (the other returned tensors are its accumulators).
func (a *Accumulator) Finalize() (map[string]*tensor.Tensor, error) {
	if len(a.weights) == 0 {
		return nil, fmt.Errorf("fl: no client updates to aggregate")
	}
	inv := 1 / a.total
	perKeyOps := 1
	if len(a.names) > 0 {
		perKeyOps = a.elems / len(a.names)
	}
	grain := parallel.GrainForCost(perKeyOps, parallel.DefaultChunkOps)
	parallel.For(len(a.names), grain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if a.unanimous[k] {
				a.accs[k] = a.first[a.names[k]]
			} else {
				a.accs[k].ScaleInPlace(inv)
			}
		}
	})
	out := make(map[string]*tensor.Tensor, len(a.names))
	for k, name := range a.names {
		out[name] = a.accs[k]
	}
	return out, nil
}

// WeightedAverage computes the FedAvg aggregate of client state dicts:
// sum_m (w_m / sum w) * dict_m, entry-wise. All dicts must share the same
// keys and shapes; weights must be positive.
//
// It is the batch form of Accumulator: dicts fold in order 0, 1, 2, ...
// (selection order) and the sum is normalized once at the end, so the
// result is bit-identical to the streaming fold at any worker count — the
// per-key accumulation order over clients is fixed, and the key shards
// internal/parallel distributes are independent. Keys on which every client
// agrees bit for bit short-circuit to the unanimous value itself: the result
// may alias dicts[0]'s tensors (see Accumulator).
func WeightedAverage(dicts []map[string]*tensor.Tensor, weights []float64) (map[string]*tensor.Tensor, error) {
	if len(dicts) == 0 {
		return nil, fmt.Errorf("fl: no client updates to aggregate")
	}
	if len(dicts) != len(weights) {
		return nil, fmt.Errorf("fl: %d dicts but %d weights", len(dicts), len(weights))
	}
	acc := NewAccumulator()
	for i, d := range dicts {
		if err := acc.Fold(d, weights[i]); err != nil {
			return nil, err
		}
	}
	return acc.Finalize()
}
