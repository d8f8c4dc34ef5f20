// Package wire is the delta-broadcast encoding subsystem that sits between
// the engine/Runner layer and the transport: instead of rebroadcasting the
// full global state dict plus the method's full wire state every round, the
// coordinator tracks what base version each live worker last acknowledged
// and ships per-key state-dict diffs against it, falling back to a full
// snapshot for workers with no usable base (fresh connections, re-queued
// work on a worker that never saw the state, post-crash hygiene).
//
// The package has three moving parts:
//
//   - Delta (codec.go): the one patch encoder. It ships only the keys whose
//     bits changed, base-relative packed (pack.go), and a full snapshot when
//     the receiver has no usable base. It is exact.
//   - Frame/Patch/Tracker (this file): the versioned wire framing and the
//     receiver-side state machine. Both ends run the same Tracker checks —
//     the worker applies frames as they arrive (Apply), the coordinator
//     advances its mirror of the worker as it sends them (Encoder.Advance)
//     — so version mismatches are rejected symmetrically instead of
//     silently diverging. Decoding writes into tensors that already exist:
//     the worker's Tracker into its own dict, the coordinator into a
//     DecodeBuffer per upload it is folding.
//   - Encoder (encoder.go): the coordinator-side frame builder. It versions
//     the round state and the method wire-state payload separately, so
//     payloads that only change at task boundaries (LwF's distillation
//     teacher, EWC's Fisher/anchor maps) are re-sent only when their bytes
//     actually change rather than every round.
//
// State versions advance once per round; a worker at version v receiving a
// delta frame with BaseVersion v applies it and lands on the frame's
// Version. Payload versions advance only when the encoded wire-state bytes
// differ from the previous round's. Idle workers (no jobs in a broadcast)
// receive KindNone frames carrying no state at all; their version simply
// lags until they next receive work, at which point the encoder diffs
// against their actual base — or sends a full snapshot if they never had
// one.
//
// Delta is direction-agnostic: workers diff each trained replica against the
// round's broadcast base (their Tracker's dict) and upload a Patch instead
// of a full state dict, and the coordinator reconstructs it against the
// mirrored base it tracks for that worker. pack.go is the base-relative
// packed encoding both directions' changed keys travel in.
package wire

import (
	"bytes"
	"fmt"
	"maps"

	"reffil/internal/checkpoint"
	"reffil/internal/tensor"
)

// Patch is one encoded state update: the wire form of "what changed between
// a base state dict and the next one". A patch is self-describing — Decode
// needs only the patch and the receiver's base dict.
type Patch struct {
	// Full marks a base-independent snapshot: Dense carries every key and
	// the receiver's base (if any) is ignored.
	Full bool
	// Dense holds the complete tensors of a Full patch, serialized in the
	// checkpoint binary format (sorted keys, validated sizes on load); empty
	// otherwise.
	Dense []byte
	// Sparse is reserved: Delta never sets it and Decode rejects a patch
	// that carries any. The field and SparseEntry stay declared only because the
	// benchmark's patch-size probe (benchmark/probe.go) ranges over them.
	Sparse []SparseEntry
	// Packed holds the changed keys of a non-Full patch as base-relative
	// packed tensors (see pack.go): each element's bits XORed against the
	// base, byte-shuffled into significance planes and DEFLATE-compressed.
	// Exactly invertible — lossless bit for bit — but decodable only
	// against the base the encoder diffed, so Full patches never carry it.
	Packed []byte
}

// SparseEntry is the element type of the reserved Patch.Sparse field.
type SparseEntry struct {
	Key string
	Idx []int64
	Val []float64
}

// Kind classifies a frame's state payload.
type Kind uint8

const (
	// KindNone carries no state update: the receiver must already hold the
	// frame's Version (idle workers, and re-queued jobs on a worker that
	// already applied this round's broadcast).
	KindNone Kind = iota
	// KindFull installs a base-independent snapshot at Version.
	KindFull
	// KindDelta patches the receiver's BaseVersion state up to Version.
	KindDelta
)

// String renders the kind name.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindFull:
		return "full"
	case KindDelta:
		return "delta"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Frame is one worker's per-broadcast state update: an optional state patch
// plus an optional method wire-state payload, each independently versioned.
type Frame struct {
	// Kind says whether Patch carries a snapshot, a diff, or nothing.
	Kind Kind
	// BaseVersion is the state version a KindDelta patch applies to; the
	// receiver must be exactly there. Zero for KindFull and KindNone.
	BaseVersion uint64
	// Version is the state version the receiver holds after applying the
	// frame. For KindNone it echoes the version the receiver is expected to
	// already hold (a cheap drift check).
	Version uint64
	// Patch is the encoded state update; zero when Kind is KindNone.
	Patch Patch
	// PayloadVersion versions the method wire-state payload. When
	// HasPayload is false it echoes the receiver's expected current payload
	// version.
	PayloadVersion uint64
	// HasPayload marks that Payload carries the method wire state the
	// receiver should load (its payload version differed from the
	// coordinator's).
	HasPayload bool
	// Payload is the fl.WireStater-encoded method state (opaque bytes).
	Payload []byte
}

// Tracker is the receiver-side state machine for one peer: the state
// version and dict it currently holds, plus its payload version. The worker
// runs one Tracker per connection; the coordinator mirrors one per worker
// so it always knows which base each worker holds.
//
// A tracker that Applies frames owns Dict: each delta is decoded into the
// tensors Dict already holds, so a caller that needs a version's values past
// the next Apply copies them (nn.LoadStateDict does). A coordinator mirror
// never Applies. Encoder.Advance points its Dict at the encoder's round
// dict, which is shared and immutable.
type Tracker struct {
	// Version is the state version currently held (0 = no state yet).
	Version uint64
	// Dict is the held state; nil until the first full frame applies.
	Dict map[string]*tensor.Tensor
	// PayloadVersion is the wire-state payload version currently loaded.
	PayloadVersion uint64
}

// Apply validates f against the tracker's versions and advances it,
// returning whether the frame carried a state update, the wire-state
// payload to load (nil unless payloadChanged), and whether it did. Any
// version mismatch — a no-op frame for a version the tracker does not
// hold, a delta against a different base, or a silent payload skew — is
// rejected before the tracker mutates, and so is a patch that does not
// decode: a full snapshot decodes into new tensors that replace Dict, a
// delta into Dict's own tensors only once every check has passed. Nothing
// Apply returns or keeps aliases f: the payload is a copy and the state is
// decoded out of the patch bytes, so f's bytes may live in a buffer the
// transport reuses.
func (t *Tracker) Apply(f *Frame) (stateChanged bool, payload []byte, payloadChanged bool, err error) {
	// Validate everything before mutating anything.
	if err := t.Validate(f); err != nil {
		return false, nil, false, err
	}

	if f.Kind != KindNone {
		dict, err := decode(t.Dict, &f.Patch, t.Dict, inPlace)
		if err != nil {
			return false, nil, false, err
		}
		t.Dict = dict
		t.Version = f.Version
		stateChanged = true
	}
	if f.HasPayload {
		t.PayloadVersion = f.PayloadVersion
		payload = bytes.Clone(f.Payload)
		payloadChanged = true
	}
	return stateChanged, payload, payloadChanged, nil
}

// Validate checks f against the tracker's versions without mutating
// anything. It is the single source of the frame invariants: Apply runs it
// before applying on the worker, and the coordinator's Encoder.Advance runs
// exactly the same checks on its mirror — tightening an invariant here
// tightens both ends of the connection at once.
func (t *Tracker) Validate(f *Frame) error {
	switch f.Kind {
	case KindNone:
		if f.Version != t.Version {
			return fmt.Errorf("wire: no-op frame expects version %d, receiver holds %d", f.Version, t.Version)
		}
	case KindFull:
		if !f.Patch.Full {
			return fmt.Errorf("wire: full frame carries a non-full patch")
		}
	case KindDelta:
		if f.Patch.Full {
			return fmt.Errorf("wire: delta frame carries a full patch")
		}
		if t.Dict == nil {
			return fmt.Errorf("wire: delta frame against version %d but receiver holds no state", f.BaseVersion)
		}
		if f.BaseVersion != t.Version {
			return fmt.Errorf("wire: delta against base version %d, receiver holds %d", f.BaseVersion, t.Version)
		}
	default:
		return fmt.Errorf("wire: unknown frame kind %d", f.Kind)
	}
	if !f.HasPayload && f.PayloadVersion != t.PayloadVersion {
		return fmt.Errorf("wire: frame expects payload version %d, receiver holds %d", f.PayloadVersion, t.PayloadVersion)
	}
	return nil
}

// inPlace is the storage a tracker decodes a delta into: the base tensor
// itself, which is the one Dict holds.
func inPlace(base *tensor.Tensor) *tensor.Tensor { return base }

// Decode applies a patch to a base state dict and returns the resulting
// dict. Exactly two forms can arrive: a full snapshot (every key in Dense;
// base is ignored and may be nil) or a packed delta against a base (changed
// keys in Packed, possibly none; the result shares the base's tensors for
// unchanged keys and must be treated as immutable alongside it). Anything
// else — sparse entries, dense bytes on a non-full patch, packed bytes on a
// full one — is rejected: Delta never emits it, so it is corruption or a peer
// speaking another protocol. It is DecodeBuffer.Decode on a buffer of its
// own, so every changed key lands in a new tensor.
func Decode(base map[string]*tensor.Tensor, p *Patch) (map[string]*tensor.Tensor, error) {
	var d DecodeBuffer
	return d.Decode(base, p)
}

// DecodeBuffer is a reusable decode target for a receiver that reads one
// decoded dict at a time from it, such as the coordinator folding an upload:
// Decode writes the changed keys of a packed delta into tensors drawn from
// the buffer's arena, which takes them all back at the next Decode. So once
// the buffer has decoded its largest set of changed keys, decoding
// allocates no tensor storage, and what it keeps is that one set — not one
// tensor for every key that ever changed, and no reference to a base. The
// zero value is ready to use; a DecodeBuffer must not be copied after first
// use.
type DecodeBuffer struct {
	arena tensor.Arena
}

// Decode is the package-level Decode into the buffer's storage. It never
// writes into base: keys the patch leaves unchanged point at base's
// tensors, and changed keys at the buffer's own, so base must not be an
// earlier result of the same buffer. The changed keys' tensors, and anything
// a kernel computed from them (which draws from the same arena), are valid
// until the next Decode. A full snapshot decodes into new tensors.
func (d *DecodeBuffer) Decode(base map[string]*tensor.Tensor, p *Patch) (map[string]*tensor.Tensor, error) {
	d.arena.Reset()
	out := make(map[string]*tensor.Tensor, len(base))
	maps.Copy(out, base)
	// Scratch storage suffices: unpacking writes every element of a changed
	// key before anything reads one.
	return decode(base, p, out, d.arena.ScratchLike)
}

// decode is the one decode path behind Decode, DecodeBuffer.Decode and
// Tracker.Apply. It rejects every patch form Delta never emits, decodes a full
// snapshot into a new dict, and unpacks a packed delta against base into out
// — which the caller has already pointed at base's tensors, or which is base
// itself — writing each changed key into the tensor storage supplies.
func decode(base map[string]*tensor.Tensor, p *Patch, out map[string]*tensor.Tensor, storage storageFunc) (map[string]*tensor.Tensor, error) {
	if len(p.Sparse) > 0 {
		return nil, fmt.Errorf("wire: patch carries %d sparse entries", len(p.Sparse))
	}
	if p.Full {
		if len(p.Packed) > 0 {
			return nil, fmt.Errorf("wire: full patch carries %d packed bytes", len(p.Packed))
		}
		return checkpoint.Unmarshal(p.Dense)
	}
	if len(p.Dense) > 0 {
		return nil, fmt.Errorf("wire: delta patch carries %d dense bytes", len(p.Dense))
	}
	if base == nil {
		return nil, fmt.Errorf("wire: delta patch without a base state")
	}
	if len(p.Packed) > 0 {
		if err := unpackDelta(base, p.Packed, out, storage); err != nil {
			return nil, err
		}
	}
	return out, nil
}
