package wire

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"reffil/internal/tensor"
)

// FuzzDecode holds Decode to four properties on arbitrary patch bytes
// against a fixed base: it never panics; it allocates no more than the
// header bounds allow (one tensor of at most maxPackElems elements, beyond
// memory proportional to the input and the base); a DecodeBuffer reused
// across inputs accepts exactly what it accepts, with the same bits; and
// whatever it accepts re-encodes to the same bytes. For a full patch that
// is the input itself — the dict form has one encoding per dict. A packed
// delta has many (any valid DEFLATE stream, any raw-plane mask, unchanged
// keys listed), so there the codec's own encoding of the decoded dict must
// be a fixed point: it decodes to the same bits and re-encodes to the same
// bytes, and equals the input whenever the input is what the codec wrote
// (the seeds).
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	base := randDict(rng)
	base["empty"] = tensor.New(0, 4)
	next := cloneDict(base)
	next["lin.b"].Data()[3] += 0.125
	next["scalar"].Data()[0] = -next["scalar"].Data()[0]

	full, err := Delta{}.Encode(nil, next)
	if err != nil {
		f.Fatal(err)
	}
	delta, err := Delta{}.Encode(base, next)
	if err != nil {
		f.Fatal(err)
	}
	if delta.Full || len(delta.Packed) == 0 {
		f.Fatalf("delta seed is not a packed patch: %+v", delta)
	}
	if back, err := Decode(base, delta); err != nil {
		f.Fatal(err)
	} else if re, err := (Delta{}).Encode(base, back); err != nil || !bytes.Equal(re.Packed, delta.Packed) {
		f.Fatalf("the codec's own patch does not re-encode to itself (err %v)", err)
	}
	f.Add(true, full.Dense, []byte(nil))
	f.Add(false, []byte(nil), delta.Packed)
	f.Add(false, []byte(nil), delta.Packed[:len(delta.Packed)-2])

	// One buffer decodes every input after Decode has: whatever shapes the
	// earlier inputs left in it, it must reach the same verdict and the same
	// bits.
	var buf DecodeBuffer
	f.Fuzz(func(t *testing.T, isFull bool, dense, packed []byte) {
		in := &Patch{Full: isFull, Dense: dense, Packed: packed}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Decode(base, in)
		runtime.ReadMemStats(&after)
		size := len(dense) + len(packed)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*maxPackElems+64*size+1<<20); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", size, alloc, bound)
		}
		reused, bufErr := buf.Decode(base, in)
		if (err == nil) != (bufErr == nil) {
			t.Fatalf("Decode error %v, DecodeBuffer.Decode error %v", err, bufErr)
		}
		if err != nil {
			return
		}
		requireSameDict(t, "reused buffer", got, reused)
		if isFull {
			re, err := Delta{}.Encode(nil, got)
			if err != nil {
				t.Fatalf("accepted snapshot does not re-encode: %v", err)
			}
			if !bytes.Equal(re.Dense, dense) {
				t.Fatalf("accepted snapshot is not canonical:\n in %x\nout %x", dense, re.Dense)
			}
			return
		}
		re, err := Delta{}.Encode(base, got)
		if err != nil {
			t.Fatalf("accepted delta does not re-encode: %v", err)
		}
		if re.Full {
			t.Fatalf("decoded dict is not diffable against its own base")
		}
		again, err := Decode(base, re)
		if err != nil {
			t.Fatalf("re-encoded delta does not decode: %v", err)
		}
		requireSameDict(t, "re-encoded delta", got, again)
		fixed, err := Delta{}.Encode(base, again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fixed.Packed, re.Packed) {
			t.Fatalf("the codec's encoding is not a fixed point:\n 1st %x\n 2nd %x", re.Packed, fixed.Packed)
		}
	})
}
