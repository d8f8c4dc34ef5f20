package wire

import (
	"fmt"
	"sort"

	"reffil/internal/checkpoint"
	"reffil/internal/tensor"
)

// CodecDelta is the wire format's one name, the only one New accepts.
const CodecDelta = "delta"

// New returns the Delta codec, the only one there is, and rejects any other
// name. It exists for the benchmark, which names the codec it measures
// (benchmark/probe.go); product code calls Delta and Buffer directly.
func New(name string) (Delta, error) {
	if name != CodecDelta {
		return Delta{}, fmt.Errorf("wire: unknown codec %q (the wire format is %q)", name, CodecDelta)
	}
	return Delta{}, nil
}

// Buffer is a reusable encode target for a sender that ships one patch at a
// time, such as a worker's uploads: Encode writes the patch's bytes into
// storage the Buffer keeps across calls, so once the storage has grown to
// the largest patch, encoding allocates no payload bytes. The zero value is
// ready to use.
type Buffer struct{ b []byte }

// Encode is Delta.Encode(base, next) into the buffer's storage. The patch it
// returns aliases that storage and is valid until the next Encode.
func (u *Buffer) Encode(base, next map[string]*tensor.Tensor) (*Patch, error) {
	p, err := appendEncode(u.b[:0], base, next)
	if err != nil {
		return nil, err
	}
	out := p.Packed
	if p.Full {
		out = p.Dense
	}
	if cap(out) > cap(u.b) {
		u.b = out[:0]
	}
	return p, nil
}

// Delta turns a (base, next) state-dict pair into a Patch and back, shipping
// only the keys whose bits changed, base-relative packed ("changed keys +
// packed payload", see pack.go: per-element XOR against the base,
// significance-plane shuffled, DEFLATE-compressed). It is exact:
// Decode(base, Encode(base, next)) reproduces next bit for bit, which is what
// lets the sender of a patch know the receiver's resulting state without
// decoding it (Encoder.FrameFor). Broadcast patches are encoded on the
// coordinator against the base it knows the worker holds and decoded on the
// worker; upload patches go the other way.
type Delta struct{}

// Encode produces a patch that transforms base into next. A nil or
// structurally incompatible base (key set or shapes differ) falls back to a
// full snapshot.
func (Delta) Encode(base, next map[string]*tensor.Tensor) (*Patch, error) {
	return appendEncode(nil, base, next)
}

// Decode is the package-level Decode, as a method for the benchmark's probe
// (benchmark/probe.go), which decodes through the codec New returns.
func (Delta) Decode(base map[string]*tensor.Tensor, p *Patch) (map[string]*tensor.Tensor, error) {
	return Decode(base, p)
}

// appendEncode is Delta.Encode with the patch's bytes appended to dst:
// Encode passes nil, a Buffer its own storage.
func appendEncode(dst []byte, base, next map[string]*tensor.Tensor) (*Patch, error) {
	if !compatible(base, next) {
		return fullPatch(dst, next)
	}
	keys := sortedKeys(next)
	changed := changedKeys(keys, base, next)
	if len(changed) == 0 {
		// A pure no-change patch: Decode returns a copy of the base.
		return &Patch{}, nil
	}
	packed, err := packDelta(dst, base, next, changed)
	if err != nil {
		return nil, err
	}
	return &Patch{Packed: packed}, nil
}

// fullPatch snapshots next: every key, in the checkpoint format, appended
// to dst.
func fullPatch(dst []byte, next map[string]*tensor.Tensor) (*Patch, error) {
	dense, err := checkpoint.AppendMarshal(dst, next)
	if err != nil {
		return nil, fmt.Errorf("wire: encoding full snapshot: %w", err)
	}
	return &Patch{Full: true, Dense: dense}, nil
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
// identical key sets with identical shapes. A delta never reshapes a key,
// which is what lets a receiver decode it into the base's own tensors.
func compatible(base, next map[string]*tensor.Tensor) bool {
	if base == nil || len(base) != len(next) {
		return false
	}
	//fedvet:ignore maporder pure key-set and shape predicate; the boolean result is order-insensitive
	for k, n := range next {
		b, ok := base[k]
		if !ok || !b.SameShape(n) {
			return false
		}
	}
	return true
}

// changedKeys returns, in key order, the keys whose tensors are not
// bit-identical between base and next (tensor.EqualBits: a 0 ↔ -0 flip or
// a NaN payload change still counts as a change — the delta path must
// never weaken the bit-identity guarantee). A key whose tensor is the same
// one in both dicts is unchanged without a compare: consecutive round
// dicts share the tensors of the keys a round left alone.
func changedKeys(keys []string, base, next map[string]*tensor.Tensor) []string {
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		if b, n := base[k], next[k]; b != n && !b.EqualBits(n) {
			out = append(out, k)
		}
	}
	return out
}
