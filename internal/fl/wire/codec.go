package wire

import (
	"fmt"
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
)

// Codec turns a (base, next) state-dict pair into a Patch and back. Every
// codec is exact: Decode(base, Encode(base, next)) reproduces next bit for
// bit, which is what lets the sender of a patch know the receiver's
// resulting state without decoding it (Encoder.Advance) and keeps accuracy
// matrices identical across codecs. Broadcast patches are encoded on the
// coordinator against the base it knows the worker holds and decoded on the
// worker; upload patches go the other way.
type Codec interface {
	// Name is the codec's registry name.
	Name() string
	// Encode produces a patch that transforms base into next. A nil base
	// must yield a full snapshot.
	Encode(base, next map[string]*tensor.Tensor) (*Patch, error)
	// Decode applies a patch produced by this codec; equivalent to the
	// package-level Decode.
	Decode(base map[string]*tensor.Tensor, p *Patch) (map[string]*tensor.Tensor, error)
	// appendEncode is Encode with the patch's bytes appended to dst: Encode
	// passes nil, a Buffer its own storage. It keeps the registry's codecs
	// the only implementations.
	appendEncode(dst []byte, base, next map[string]*tensor.Tensor) (*Patch, error)
}

// New resolves a codec registry name.
func New(name string) (Codec, error) {
	switch name {
	case CodecFull:
		return Full{}, nil
	case CodecDelta:
		return Delta{}, nil
	}
	return nil, fmt.Errorf("wire: unknown codec %q (have %s)", name, strings.Join(Names(), "|"))
}

// Names lists the registry codec names in flag order.
func Names() []string { return []string{CodecFull, CodecDelta} }

// Buffer is a reusable encode target for a sender that ships one patch at a
// time, such as a worker's uploads: Encode writes the patch's bytes into
// storage the Buffer keeps across calls, so once the storage has grown to
// the largest patch, encoding allocates no payload bytes. The zero value is
// ready to use.
type Buffer struct{ b []byte }

// Encode is c.Encode(base, next) into the buffer's storage. The patch it
// returns aliases that storage and is valid until the next Encode.
func (u *Buffer) Encode(c Codec, base, next map[string]*tensor.Tensor) (*Patch, error) {
	p, err := c.appendEncode(u.b[:0], base, next)
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

// Full ships every patch as a complete snapshot.
type Full struct{}

// Name implements Codec.
func (Full) Name() string { return CodecFull }

// Encode implements Codec: base is ignored.
func (f Full) Encode(base, next map[string]*tensor.Tensor) (*Patch, error) {
	return f.appendEncode(nil, base, next)
}

func (Full) appendEncode(dst []byte, base, next map[string]*tensor.Tensor) (*Patch, error) {
	return fullPatch(dst, next)
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

// Encode implements Codec. A nil or structurally incompatible base (key set
// or shapes differ) falls back to a full snapshot.
func (d Delta) Encode(base, next map[string]*tensor.Tensor) (*Patch, error) {
	return d.appendEncode(nil, base, next)
}

func (Delta) appendEncode(dst []byte, base, next map[string]*tensor.Tensor) (*Patch, error) {
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

// Decode implements Codec.
func (Delta) Decode(base map[string]*tensor.Tensor, p *Patch) (map[string]*tensor.Tensor, error) {
	return Decode(base, p)
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
