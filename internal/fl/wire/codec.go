package wire

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"reffil/internal/checkpoint"
	"reffil/internal/parallel"
	"reffil/internal/tensor"
)

// Codec registry names (the -codec flag values).
const (
	CodecFull  = "full"
	CodecDelta = "delta"
	CodecTopK  = "topk"
)

// DefaultTopKRatio is the per-key fraction of elements the "topk" registry
// codec keeps (the largest-magnitude changes).
const DefaultTopKRatio = 0.25

// Codec turns a (base, next) state-dict pair into a Patch and back. Encode
// runs on the coordinator against the base it knows the worker holds;
// Decode runs on the worker (and again on the coordinator, mirroring the
// worker, unless the codec is lossless and the shortcut applies).
type Codec interface {
	// Name is the registry name stamped into produced patches.
	Name() string
	// Lossless reports whether Decode(base, Encode(base, next)) reproduces
	// next bit for bit. The coordinator uses it to shortcut its mirror of
	// the worker state, and accuracy matrices are only guaranteed identical
	// across codecs that report true.
	Lossless() bool
	// Encode produces a patch that transforms base into (an approximation
	// of) next. A nil base must yield a full snapshot.
	Encode(base, next map[string]*tensor.Tensor) (*Patch, error)
	// Decode applies a patch produced by this codec; equivalent to the
	// package-level Decode.
	Decode(base map[string]*tensor.Tensor, p *Patch) (map[string]*tensor.Tensor, error)
}

// New resolves a codec registry name.
func New(name string) (Codec, error) {
	switch name {
	case CodecFull:
		return Full{}, nil
	case CodecDelta:
		return Delta{}, nil
	case CodecTopK:
		return DeltaTopK{Ratio: DefaultTopKRatio}, nil
	}
	return nil, fmt.Errorf("wire: unknown codec %q (have %s)", name, strings.Join(Names(), "|"))
}

// Names lists the registry codec names in flag order.
func Names() []string { return []string{CodecFull, CodecDelta, CodecTopK} }

// ForUpload resolves the codec for the worker→coordinator direction under
// the named broadcast codec. It never returns a nil codec: every upload is
// a Patch. The full codec — and an empty name, for safety — uploads
// complete snapshots (Full), the baseline the byte accounting measures
// against. Lossless codecs encode uploads directly. Lossy codecs fall back
// to the lossless delta: a lossy broadcast only degrades what a worker
// trains *from*, but a lossy upload would silently approximate the FedAvg
// inputs themselves, so topk is restricted to the broadcast direction by
// design.
func ForUpload(broadcast string) (Codec, error) {
	if broadcast == "" {
		return Full{}, nil
	}
	c, err := New(broadcast)
	if err != nil {
		return nil, err
	}
	if !c.Lossless() {
		return Delta{}, nil
	}
	return c, nil
}

// Full ships every patch as a complete snapshot.
type Full struct{}

// Name implements Codec.
func (Full) Name() string { return CodecFull }

// Lossless implements Codec.
func (Full) Lossless() bool { return true }

// Encode implements Codec: base is ignored.
func (Full) Encode(base, next map[string]*tensor.Tensor) (*Patch, error) {
	return fullPatch(CodecFull, next)
}

// Decode implements Codec.
func (Full) Decode(base map[string]*tensor.Tensor, p *Patch) (map[string]*tensor.Tensor, error) {
	return Decode(base, p)
}

// Delta ships only the keys whose bits changed, base-relative packed
// ("changed keys + packed payload", see pack.go: per-element XOR against
// the base, significance-plane shuffled, DEFLATE-compressed). Exact:
// unchanged keys are taken from the base, changed keys reconstruct bit for
// bit from the base and the packed XOR words.
type Delta struct{}

// Name implements Codec.
func (Delta) Name() string { return CodecDelta }

// Lossless implements Codec.
func (Delta) Lossless() bool { return true }

// Encode implements Codec. A nil or structurally incompatible base (key set
// or element counts differ) falls back to a full snapshot.
func (Delta) Encode(base, next map[string]*tensor.Tensor) (*Patch, error) {
	if !compatible(base, next) {
		return fullPatch(CodecDelta, next)
	}
	keys := sortedKeys(next)
	changed := changedKeys(keys, base, next)
	if len(changed) == 0 {
		// A pure no-change patch: Decode returns a copy of the base.
		return &Patch{Codec: CodecDelta}, nil
	}
	packed, err := packDelta(base, next, changed)
	if err != nil {
		return nil, err
	}
	return &Patch{Codec: CodecDelta, Packed: packed}, nil
}

// Decode implements Codec.
func (Delta) Decode(base map[string]*tensor.Tensor, p *Patch) (map[string]*tensor.Tensor, error) {
	return Decode(base, p)
}

// DeltaTopK is the sparsifying delta: per changed key it keeps only the
// Ratio fraction of elements with the largest-magnitude change, shipped as
// flat (index, new value) pairs. Unsent changed elements keep their base
// value, so the codec is lossy (Ratio 1 keeps every change and is exact);
// the coordinator compensates by mirroring each worker's decoded state, so
// successive patches diff against what the worker actually holds.
type DeltaTopK struct {
	// Ratio is the per-key kept fraction in (0, 1]; at least one element of
	// every changed key is always sent.
	Ratio float64
}

// Name implements Codec.
func (DeltaTopK) Name() string { return CodecTopK }

// Lossless implements Codec.
func (c DeltaTopK) Lossless() bool { return c.Ratio >= 1 }

// Encode implements Codec. Keys where the sparse form would not be smaller
// than the dense tensor (half or more of the elements kept) are shipped
// densely instead.
func (c DeltaTopK) Encode(base, next map[string]*tensor.Tensor) (*Patch, error) {
	if c.Ratio <= 0 || c.Ratio > 1 {
		return nil, fmt.Errorf("wire: topk ratio must be in (0,1], got %v", c.Ratio)
	}
	if !compatible(base, next) {
		return fullPatch(CodecTopK, next)
	}
	keys := sortedKeys(next)
	sparse := make([]*SparseEntry, len(keys))
	dense := make([]bool, len(keys))
	parallel.For(len(keys), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bd, nd := base[keys[i]].Data(), next[keys[i]].Data()
			var idx []int64
			for j := range nd {
				if math.Float64bits(bd[j]) != math.Float64bits(nd[j]) {
					idx = append(idx, int64(j))
				}
			}
			if len(idx) == 0 {
				continue
			}
			keep := int(math.Ceil(c.Ratio * float64(len(nd))))
			if keep < 1 {
				keep = 1
			}
			if len(idx) > keep {
				// Largest |change| first, position ascending on ties, then
				// back to ascending positions for the kept set — fully
				// deterministic.
				sort.Slice(idx, func(a, b int) bool {
					da := math.Abs(nd[idx[a]] - bd[idx[a]])
					db := math.Abs(nd[idx[b]] - bd[idx[b]])
					//fedvet:ignore floatbits sort comparator on |change| magnitudes: a pure function of the operands with position tie-breaks, deterministic for any bit pattern
					if da != db {
						return da > db
					}
					return idx[a] < idx[b]
				})
				idx = idx[:keep]
				sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
			}
			if 2*len(idx) >= len(nd) {
				// index+value pairs would cost at least the dense tensor.
				dense[i] = true
				continue
			}
			vals := make([]float64, len(idx))
			for j, ix := range idx {
				vals[j] = nd[ix]
			}
			sparse[i] = &SparseEntry{Key: keys[i], Idx: idx, Val: vals}
		}
	})
	p := &Patch{Codec: CodecTopK}
	denseDict := make(map[string]*tensor.Tensor)
	for i, k := range keys {
		switch {
		case dense[i]:
			denseDict[k] = next[k]
		case sparse[i] != nil:
			p.Sparse = append(p.Sparse, *sparse[i])
		}
	}
	var err error
	p.Dense, err = encodeDense(denseDict)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Decode implements Codec.
func (c DeltaTopK) Decode(base map[string]*tensor.Tensor, p *Patch) (map[string]*tensor.Tensor, error) {
	return Decode(base, p)
}

// fullPatch snapshots next under the given codec name.
func fullPatch(codec string, next map[string]*tensor.Tensor) (*Patch, error) {
	dense, err := encodeDense(next)
	if err != nil {
		return nil, err
	}
	return &Patch{Codec: codec, Full: true, Dense: dense}, nil
}

// encodeDense serializes a sub-dict in the checkpoint format.
func encodeDense(dict map[string]*tensor.Tensor) ([]byte, error) {
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, dict); err != nil {
		return nil, fmt.Errorf("wire: encoding dense payload: %w", err)
	}
	return buf.Bytes(), nil
}

// sortedKeys returns the dict's keys in ascending order.
func sortedKeys(dict map[string]*tensor.Tensor) []string {
	keys := make([]string, 0, len(dict))
	for k := range dict {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compatible reports whether base can serve as a diffing base for next:
// identical key sets with identical element counts.
func compatible(base, next map[string]*tensor.Tensor) bool {
	if base == nil || len(base) != len(next) {
		return false
	}
	//fedvet:ignore maporder pure key-set and size predicate; the boolean result is order-insensitive
	for k, n := range next {
		b, ok := base[k]
		if !ok || b.Size() != n.Size() {
			return false
		}
	}
	return true
}

// changedKeys returns, in key order, the keys whose tensors are not
// bit-identical between base and next (tensor.EqualBits: a 0 ↔ -0 flip or
// a NaN payload change still counts as a change — the delta path must
// never weaken the bit-identity guarantee). The per-key comparison fans
// out over internal/parallel: keys are independent and the result order is
// fixed by the sorted key list, so the output is deterministic at any
// worker count.
func changedKeys(keys []string, base, next map[string]*tensor.Tensor) []string {
	changed := make([]bool, len(keys))
	parallel.For(len(keys), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			changed[i] = !base[keys[i]].EqualBits(next[keys[i]])
		}
	})
	out := make([]string, 0, len(keys))
	for i, k := range keys {
		if changed[i] {
			out = append(out, k)
		}
	}
	return out
}
