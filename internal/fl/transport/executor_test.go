package transport

import (
	"strings"
	"testing"

	"reffil/internal/fl/wire"
	"reffil/internal/tensor"
)

// payloadAlg is wireAlg with a method wire state: the bytes it last loaded.
type payloadAlg struct {
	*wireAlg
	loaded []byte
}

func (a *payloadAlg) EncodeWireState() ([]byte, error) { return a.loaded, nil }
func (a *payloadAlg) LoadWireState(b []byte) error     { a.loaded = b; return nil }

// TestResetStreamAcceptsARestartedCoordinator serves an Executor one
// coordinator's stream, whose method had wire state (payload version 1),
// then the first frame of a restarted coordinator, whose method has none
// yet: a full snapshot carrying no payload and stamped payload version 0,
// because the new encoder's versions start over. The old stream's tracker
// must reject that frame without installing anything, and after
// ResetStream — what a worker calls before it serves a re-dialed
// connection — the executor must accept it and hold the new state.
func TestResetStreamAcceptsARestartedCoordinator(t *testing.T) {
	alg := &payloadAlg{wireAlg: newWireAlg(0)}
	ex, err := NewExecutor(alg, 1)
	if err != nil {
		t.Fatal(err)
	}
	firstFrame := func(enc *wire.Encoder, w float64, payload []byte) Broadcast {
		t.Helper()
		dict := map[string]*tensor.Tensor{"w": tensor.New(1)}
		dict["w"].Data()[0] = w
		enc.SetRound(dict, payload)
		f, err := enc.FrameFor(&wire.Tracker{})
		if err != nil {
			t.Fatal(err)
		}
		return Broadcast{Frame: *f}
	}
	var old, restarted wire.Encoder
	if err := ex.Handle(firstFrame(&old, 1, []byte("teacher")), nil); err != nil {
		t.Fatal(err)
	}
	if string(alg.loaded) != "teacher" || alg.w.T.At(0) != 1 {
		t.Fatalf("first stream installed w = %v and payload %q", alg.w.T.At(0), alg.loaded)
	}
	fresh := firstFrame(&restarted, 2, nil)
	if fresh.Frame.Kind != wire.KindFull || fresh.Frame.HasPayload || fresh.Frame.PayloadVersion != 0 {
		t.Fatalf("restarted coordinator's first frame: %v, payload %v, payload version %d", fresh.Frame.Kind, fresh.Frame.HasPayload, fresh.Frame.PayloadVersion)
	}
	if err := ex.Handle(fresh, nil); err == nil || !strings.Contains(err.Error(), "payload version") {
		t.Fatalf("the old stream's tracker accepted a frame skipping the payload it disagrees on: %v", err)
	}
	if alg.w.T.At(0) != 1 {
		t.Fatalf("the rejected frame installed w = %v", alg.w.T.At(0))
	}
	ex.ResetStream()
	if err := ex.Handle(fresh, nil); err != nil {
		t.Fatalf("after ResetStream: %v", err)
	}
	if alg.w.T.At(0) != 2 {
		t.Fatalf("after ResetStream the executor holds w = %v, want the restarted coordinator's 2", alg.w.T.At(0))
	}
}
