package wire

import (
	"bytes"
	"fmt"
	"sync"

	"reffil/internal/fl/internal/poison"
	"reffil/internal/tensor"
)

// Encoder is the coordinator-side frame builder: it holds the current
// round's canonical state dict and wire-state payload under monotone
// versions, and builds one Frame per worker against whatever base version
// that worker's Tracker holds. The zero value is ready to use.
//
// Versioning: the state version advances on every SetRound (aggregation
// changes the global every round); the payload version advances only when
// the payload bytes differ from the previous round's — which is what stops
// LwF's teacher (a full model) from crossing the wire more than once per
// task.
//
// Ownership: every round dict the encoder is given, and every tensor in
// one, is immutable from SetRound on for as long as the encoder, a mirror,
// an upload-decode base or a dict decoded against one still holds it — they
// read it until they let go — so consecutive round dicts may share the
// tensors of unchanged keys. Once a replaced dict is held by none of them,
// its tensors that the current dict does not share are the caller's again,
// to write a later round's dict into. The bytes of the patches FrameFor
// builds are the encoder's own: after the next SetRound, that round's
// patches are written into them.
type Encoder struct {
	mu             sync.Mutex
	version        uint64
	dict           map[string]*tensor.Tensor
	payloadVersion uint64
	payload        []byte
	// patches caches this round's encoded patches by base version (0 = the
	// base-independent full snapshot). Delta is exact, so two workers at the
	// same version hold the same dict and can share one patch.
	patches map[uint64]*Patch
	// bufs[i] holds the bytes of the round's i-th encoded patch, and used
	// counts the round's patches: each round encodes into the storage the
	// rounds before it grew.
	bufs []Buffer
	used int
}

// SetRound installs the round's canonical state dict and encoded wire-state
// payload, advancing the state version (and the payload version iff the
// payload bytes changed). The encoder takes ownership of dict, whose
// tensors no one may write while anything holds it (see Encoder); it may
// share tensors with earlier rounds' dicts (a key whose bits did not
// change), which are immutable too.
//
// SetRound retires every Frame FrameFor built before it: their patches'
// bytes become the storage of this round's patches. The caller must be done
// with all of them — every write of one returned — before calling it.
func (e *Encoder) SetRound(dict map[string]*tensor.Tensor, payload []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.version++
	e.dict = dict
	if !bytes.Equal(payload, e.payload) {
		e.payloadVersion++
		e.payload = payload
	}
	if e.patches == nil {
		e.patches = make(map[uint64]*Patch)
	}
	clear(e.patches)
	for i := range e.bufs[:e.used] {
		poison.Bytes(e.bufs[i].b[:cap(e.bufs[i].b)])
	}
	e.used = 0
}

// Dict returns the current round's canonical state dict (nil before the
// first SetRound). The dict and every tensor in it are shared and must be
// treated as immutable.
func (e *Encoder) Dict() map[string]*tensor.Tensor {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dict
}

// FrameFor builds the frame that brings a worker whose receive state is t
// to the current versions — a KindNone frame when it already holds them, a
// delta against its base, or a full snapshot when it holds none — and
// advances t past it, so t must be the coordinator's mirror of that worker's
// Tracker and the frame must reach the worker. Nothing is decoded: Delta is
// exact, so a worker that applies a state frame holds the canonical round
// dict, and the mirror shares it; t.Dict is then the base the worker's
// upload patches diff against. The frame's patch aliases the encoder's
// storage until the next SetRound.
func (e *Encoder) FrameFor(t *Tracker) (*Frame, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dict == nil {
		return nil, fmt.Errorf("wire: FrameFor before SetRound")
	}
	f := &Frame{Kind: KindNone, Version: t.Version, PayloadVersion: t.PayloadVersion}
	if t.Version != e.version {
		base, baseV := t.Dict, t.Version
		if base == nil {
			baseV = 0
		}
		p, err := e.patchFor(baseV, base)
		if err != nil {
			return nil, err
		}
		f.Patch, f.Version = *p, e.version
		if p.Full {
			f.Kind, f.BaseVersion = KindFull, 0
		} else {
			f.Kind, f.BaseVersion = KindDelta, baseV
		}
	}
	if t.PayloadVersion != e.payloadVersion {
		f.HasPayload, f.Payload, f.PayloadVersion = true, e.payload, e.payloadVersion
	}
	t.Dict, t.Version, t.PayloadVersion = e.dict, e.version, e.payloadVersion
	return f, nil
}

// patchFor encodes, once per base version, the patch from the given base up
// to the current state. Called with e.mu held.
func (e *Encoder) patchFor(baseV uint64, base map[string]*tensor.Tensor) (*Patch, error) {
	if p, ok := e.patches[baseV]; ok {
		return p, nil
	}
	if e.used == len(e.bufs) {
		e.bufs = append(e.bufs, Buffer{})
	}
	p, err := e.bufs[e.used].Encode(base, e.dict)
	if err != nil {
		return nil, err
	}
	e.used++
	e.patches[baseV] = p
	return p, nil
}
