package wire

import (
	"bytes"
	"fmt"
	"sync"

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
}

// SetRound installs the round's canonical state dict and encoded wire-state
// payload, advancing the state version (and the payload version iff the
// payload bytes changed). The encoder takes ownership of dict: the caller
// must pass a fresh copy (nn.StateDict already clones) and never mutate it.
func (e *Encoder) SetRound(dict map[string]*tensor.Tensor, payload []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.version++
	e.dict = dict
	if !bytes.Equal(payload, e.payload) {
		e.payloadVersion++
		e.payload = payload
	}
	e.patches = make(map[uint64]*Patch)
}

// Dict returns the current round's canonical state dict (nil before the
// first SetRound). The dict and every tensor in it are shared and must be
// treated as immutable.
func (e *Encoder) Dict() map[string]*tensor.Tensor {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dict
}

// FrameFor builds the frame for a worker whose receive state is t. active
// says whether the worker has jobs in this broadcast: inactive workers get
// a bare KindNone frame (no state, no payload — their versions simply lag),
// active ones get whatever it takes to bring them to the current versions.
func (e *Encoder) FrameFor(t *Tracker, active bool) (*Frame, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dict == nil {
		return nil, fmt.Errorf("wire: FrameFor before SetRound")
	}
	f := &Frame{Kind: KindNone, Version: t.Version, PayloadVersion: t.PayloadVersion}
	if !active {
		return f, nil
	}
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
	return f, nil
}

// patchFor encodes, once per base version, the patch from the given base up
// to the current state. Called with e.mu held.
func (e *Encoder) patchFor(baseV uint64, base map[string]*tensor.Tensor) (*Patch, error) {
	if p, ok := e.patches[baseV]; ok {
		return p, nil
	}
	p, err := Delta{}.Encode(base, e.dict)
	if err != nil {
		return nil, err
	}
	e.patches[baseV] = p
	return p, nil
}

// Advance moves t — the coordinator's mirror of one worker's Tracker — past
// f, the frame FrameFor just built for it, with the same version-mismatch
// rejection the worker's Tracker.Apply performs. Nothing is decoded: Delta
// is exact, so a worker that applies a state frame for the current
// version holds the canonical round dict, and the mirror shares it. After
// Advance, t.Dict is the base the worker's upload patches diff against.
func (e *Encoder) Advance(t *Tracker, f *Frame) error {
	if err := t.Validate(f); err != nil {
		return err
	}
	if f.Kind != KindNone {
		e.mu.Lock()
		dict, version := e.dict, e.version
		e.mu.Unlock()
		if f.Version != version {
			return fmt.Errorf("wire: advancing past a frame for version %d, encoder holds %d", f.Version, version)
		}
		t.Dict, t.Version = dict, version
	}
	if f.HasPayload {
		t.PayloadVersion = f.PayloadVersion
	}
	return nil
}
