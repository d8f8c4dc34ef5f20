package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"reffil/internal/tensor"
)

// randDict builds a random state dict with a few differently shaped keys.
func randDict(rng *rand.Rand) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"conv.w": tensor.RandN(rng, 1, 4, 3, 3),
		"lin.w":  tensor.RandN(rng, 1, 8, 16),
		"lin.b":  tensor.RandN(rng, 1, 16),
		"scalar": tensor.Scalar(rng.NormFloat64()),
	}
}

// cloneDict deep-copies a state dict.
func cloneDict(d map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(d))
	for k, v := range d {
		out[k] = v.Clone()
	}
	return out
}

// mutate flips a fraction of the elements of the named keys.
func mutate(rng *rand.Rand, d map[string]*tensor.Tensor, frac float64, keys ...string) {
	for _, k := range keys {
		data := d[k].Data()
		for i := range data {
			if rng.Float64() < frac {
				data[i] += rng.NormFloat64()
			}
		}
	}
}

// requireSameDict asserts bitwise equality of two dicts.
func requireSameDict(t *testing.T, label string, want, got map[string]*tensor.Tensor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: dict has %d keys, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing key %q", label, k)
		}
		wd, gd := w.Data(), g.Data()
		if len(wd) != len(gd) {
			t.Fatalf("%s: key %q has %d elements, want %d", label, k, len(gd), len(wd))
		}
		for i := range wd {
			if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
				t.Fatalf("%s: key %q diverged at element %d: %v vs %v", label, k, i, gd[i], wd[i])
			}
		}
	}
}

// TestCodecRoundTrip is the codec property test: over a spread of random
// (base, next) pairs, Decode(base, Encode(base, next)) must reproduce next
// bit for bit. The "delta" cases diff against a base — identical dicts (the
// empty diff), every key changed, a sparse scatter of changed elements —
// and the "full" cases have no base, so Encode must fall back to a full
// snapshot. New resolves the one codec name and no other.
func TestCodecRoundTrip(t *testing.T) {
	c, err := New(CodecDelta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("full"); err == nil {
		t.Fatal(`New("full") resolved a codec that no longer exists`)
	}
	for _, withBase := range []bool{true, false} {
		name := "delta"
		if !withBase {
			name = "full"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 15; trial++ {
				base := randDict(rng)
				next := cloneDict(base)
				switch trial % 3 {
				case 0:
					// empty diff: next == base
				case 1:
					mutate(rng, next, 1, "conv.w", "lin.w", "lin.b", "scalar")
				case 2:
					mutate(rng, next, 0.2, "lin.w")
				}
				if !withBase {
					base = nil
				}
				p, err := c.Encode(base, next)
				if err != nil {
					t.Fatal(err)
				}
				if p.Full != !withBase {
					t.Fatalf("trial %d: patch Full = %v with base %v", trial, p.Full, withBase)
				}
				got, err := c.Decode(base, p)
				if err != nil {
					t.Fatal(err)
				}
				requireSameDict(t, name, next, got)
			}
		})
	}
}

// patchBytes measures a patch as a transport frame lays it out: the Full
// flag and the two planes, each length-prefixed.
func patchBytes(t *testing.T, p *Patch) int {
	t.Helper()
	return 1 + 4 + len(p.Dense) + 4 + len(p.Packed)
}

// TestDeltaEmptyDiffIsTiny pins the point of the delta codec: an unchanged
// state encodes to a patch orders of magnitude smaller than the snapshot.
func TestDeltaEmptyDiffIsTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := randDict(rng)
	base["big.w"] = tensor.RandN(rng, 1, 64, 64) // amortize the framing overhead
	full, err := Delta{}.Encode(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Delta{}.Encode(base, cloneDict(base))
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := patchBytes(t, empty), patchBytes(t, full)/10; got >= limit {
		t.Fatalf("empty diff encodes to %d bytes, full snapshot %d — no saving", got, patchBytes(t, full))
	}
}

// TestPackedDeltaExploitsCloseness pins the v5 packed encoding's reason to
// exist: when next is numerically close to base — one SGD step away, the
// trained-replica upload case — the packed patch is materially smaller than
// the raw float64 payload of the changed keys, even though every element's
// bits changed. The XOR against the base zeroes the bytes the two values
// agree on and the plane shuffle hands DEFLATE the zero runs.
func TestPackedDeltaExploitsCloseness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := randDict(rng)
	base["big.w"] = tensor.RandN(rng, 1, 64, 64)
	next := cloneDict(base)
	rawBytes := 0
	for _, k := range []string{"conv.w", "lin.w", "lin.b", "scalar", "big.w"} {
		d := next[k].Data()
		for i := range d {
			d[i] *= 1 + 1e-12*(rng.Float64()+0.5) // every element changes, barely
		}
		rawBytes += 8 * len(d)
	}
	p, err := Delta{}.Encode(base, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Packed) == 0 {
		t.Fatal("changed keys must ship packed")
	}
	if got := patchBytes(t, p); got >= rawBytes/2 {
		t.Fatalf("packed close-delta is %d bytes, raw changed payload %d — packing saved too little", got, rawBytes)
	}
	got, err := Decode(base, p)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDict(t, "packed closeness", next, got)
}

// TestPlaneIncompressible pins the entropy gate that routes planes past
// DEFLATE: uniform-noise bytes are flagged raw, structured bytes are not,
// and short planes are never flagged (raw saves nothing there).
func TestPlaneIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	noise := make([]byte, 4096)
	rng.Read(noise)
	if !planeIncompressible(noise) {
		t.Error("4 KiB of uniform noise must be flagged incompressible")
	}
	if planeIncompressible(noise[:rawPlaneMinLen-1]) {
		t.Error("planes below rawPlaneMinLen must never be flagged raw")
	}
	if planeIncompressible(make([]byte, 4096)) {
		t.Error("all-zero plane must be left to DEFLATE")
	}
	skewed := make([]byte, 4096)
	for i := range skewed {
		skewed[i] = byte(rng.Intn(16)) // 4 bits/byte of entropy
	}
	if planeIncompressible(skewed) {
		t.Error("low-entropy plane must be left to DEFLATE")
	}
}

// TestPackedDeltaRawPlanesRoundTrip drives the raw-plane wire path: a large
// fully-rewritten tensor XORs to near-uniform mantissa planes, so the encoder
// ships some planes raw (past DEFLATE) and the rest compressed. The decode
// must still be bit-exact, and the noise payload must not balloon past its
// raw size (DEFLATE on noise adds ~1/2^14 framing overhead at most).
func TestPackedDeltaRawPlanesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	base := randDict(rng)
	base["noise.w"] = tensor.RandN(rng, 1, 64, 64)
	next := cloneDict(base)
	d := next["noise.w"].Data()
	for i := range d {
		d[i] = rng.NormFloat64() // full rewrite: delta is noise in every plane
	}
	mutate(rng, next, 0.1, "lin.w") // plus a sparse, compressible key
	p, err := Delta{}.Encode(base, next)
	if err != nil {
		t.Fatal(err)
	}
	rawBytes := 8 * (len(d) + len(next["lin.w"].Data()))
	if got := patchBytes(t, p); got > rawBytes+rawBytes/8 {
		t.Fatalf("noise-heavy packed delta is %d bytes for %d raw bytes — incompressible planes must ship raw", got, rawBytes)
	}
	got, err := Decode(base, p)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDict(t, "raw planes", next, got)
}

// TestPackedDeltaRejectsCorrupt covers the unpack-side validation edges:
// truncated header, trailing byte, unknown key, element-count mismatch
// against the base, a shape mismatch at equal element count, and a key
// listed twice. The codec never writes the shape mismatch: it encodes
// against a base of another shape as a full snapshot.
func TestPackedDeltaRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	base := randDict(rng)
	next := cloneDict(base)
	mutate(rng, next, 1, "lin.b")
	p, err := Delta{}.Encode(base, next)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(base, &Patch{Packed: p.Packed[:3]}); err == nil {
		t.Fatal("truncated packed payload must error")
	}
	if _, err := Decode(base, &Patch{Packed: append(p.Packed[:len(p.Packed):len(p.Packed)], 0)}); err == nil {
		t.Fatal("a byte after the packed planes must error")
	}
	stranger := map[string]*tensor.Tensor{"other": tensor.RandN(rng, 1, 4)}
	if _, err := Decode(stranger, p); err == nil {
		t.Fatal("packed update of a key absent from the base must error")
	}
	short := map[string]*tensor.Tensor{
		"conv.w": base["conv.w"], "lin.w": base["lin.w"], "scalar": base["scalar"],
		"lin.b": tensor.RandN(rng, 1, 4), // wrong element count
	}
	if _, err := Decode(short, p); err == nil {
		t.Fatal("packed element-count mismatch against the base must error")
	}
	reshaped := map[string]*tensor.Tensor{
		"conv.w": base["conv.w"], "lin.w": base["lin.w"], "scalar": base["scalar"],
		"lin.b": tensor.RandN(rng, 1, 4, 4), // lin.b's 16 elements, another shape
	}
	if _, err := Decode(reshaped, p); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("packed shape mismatch against the base: %v", err)
	}
	if q, err := (Delta{}).Encode(reshaped, next); err != nil || !q.Full {
		t.Fatalf("encoding against a base of another shape must fall back to a full snapshot (err %v)", err)
	}
	twice, err := packDelta(nil, base, next, []string{"lin.b", "lin.b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(base, &Patch{Packed: twice}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("key listed twice in the packed part: %v", err)
	}
}

// TestDeltaSharesUnchangedTensors pins the decode memory contract: keys the
// patch does not touch are shared with the base, not copied.
func TestDeltaSharesUnchangedTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := randDict(rng)
	next := cloneDict(base)
	mutate(rng, next, 1, "lin.b")
	p, err := Delta{}.Encode(base, next)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(base, p)
	if err != nil {
		t.Fatal(err)
	}
	if got["conv.w"] != base["conv.w"] {
		t.Fatal("unchanged key must share the base tensor")
	}
	if got["lin.b"] == base["lin.b"] {
		t.Fatal("changed key must not alias the base tensor")
	}
}

// manyKeyDict builds a base dict of 16 differently shaped keys, enough for
// patches whose changed-key sets differ in more than one key.
func manyKeyDict(rng *rand.Rand) (map[string]*tensor.Tensor, []string) {
	d := make(map[string]*tensor.Tensor, 16)
	var keys []string
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("layer%02d.w", i)
		d[k] = tensor.RandN(rng, 1, 1+i%3, 8+i)
		keys = append(keys, k)
	}
	return d, keys
}

// snapshotDict records what a dict holds: its tensors' identities and a
// deep copy of their bits.
func snapshotDict(d map[string]*tensor.Tensor) (map[string]*tensor.Tensor, map[string]*tensor.Tensor) {
	ptrs := make(map[string]*tensor.Tensor, len(d))
	for k, v := range d {
		ptrs[k] = v
	}
	return ptrs, cloneDict(d)
}

// requireUnchanged asserts d still holds exactly the tensors and bits a
// snapshotDict took.
func requireUnchanged(t *testing.T, label string, d, ptrs, bits map[string]*tensor.Tensor) {
	t.Helper()
	if len(d) != len(ptrs) {
		t.Fatalf("%s: dict has %d keys, had %d", label, len(d), len(ptrs))
	}
	for k, p := range ptrs {
		if d[k] != p {
			t.Fatalf("%s: key %q points at another tensor", label, k)
		}
	}
	requireSameDict(t, label, bits, d)
}

// TestDecodeBufferMatchesDecode reuses one DecodeBuffer across patches
// whose changed-key sets differ — every key, then 8 of 16, then every key
// again, then a full snapshot, then a delta once more — and holds each
// result to Decode's bits. The base keeps every tensor and every bit
// throughout, unchanged keys point at it, and after the first decode every
// changed key is written into a tensor the buffer already holds.
func TestDecodeBufferMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	base, keys := manyKeyDict(rng)
	basePtrs, baseBits := snapshotDict(base)
	next := func(changed []string) map[string]*tensor.Tensor {
		n := cloneDict(base)
		mutate(rng, n, 1, changed...)
		return n
	}
	delta := func(changed []string) *Patch {
		p, err := Delta{}.Encode(base, next(changed))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	full, err := Delta{}.Encode(nil, next(keys))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name    string
		p       *Patch
		changed []string
	}{
		{"every key", delta(keys), keys},
		{"8 keys", delta(keys[4:12]), keys[4:12]},
		{"every key again", delta(keys), keys},
		{"full snapshot", full, nil},
		{"every key after the snapshot", delta(keys), keys},
	}
	var buf DecodeBuffer
	owned := make(map[*tensor.Tensor]bool) // what the first, largest decode drew
	for i, s := range steps {
		want, err := Decode(base, s.p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := buf.Decode(base, s.p)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDict(t, s.name, want, got)
		requireUnchanged(t, s.name+": base", base, basePtrs, baseBits)
		if s.p.Full {
			continue
		}
		isChanged := make(map[string]bool)
		for _, k := range s.changed {
			isChanged[k] = true
			if i == 0 {
				owned[got[k]] = true
			} else if !owned[got[k]] {
				t.Fatalf("%s: key %q decoded into a new tensor, not one the buffer holds", s.name, k)
			}
		}
		for _, k := range keys {
			if (got[k] == base[k]) == isChanged[k] {
				t.Fatalf("%s: key %q points at the base: %v, changed: %v", s.name, k, got[k] == base[k], isChanged[k])
			}
		}
	}
}

// TestApplyRejectsWithoutWriting drives a tracker that decodes in place
// through five corrupt deltas — a plane stream cut inside its planes or
// before its final block, a byte after the planes, a key the tracker does
// not hold, and a key of another size — and requires each to leave the
// tracker's version, its dict's tensors and every bit in them as they were.
// A valid delta after them still lands, in place.
func TestApplyRejectsWithoutWriting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	state := randDict(rng)
	full, err := Delta{}.Encode(nil, state)
	if err != nil {
		t.Fatal(err)
	}
	var tr Tracker
	if _, _, _, err := tr.Apply(&Frame{Kind: KindFull, Version: 1, Patch: *full}); err != nil {
		t.Fatal(err)
	}
	next := cloneDict(state)
	mutate(rng, next, 1, "conv.w", "lin.w", "lin.b", "scalar")
	valid, err := Delta{}.Encode(state, next)
	if err != nil {
		t.Fatal(err)
	}
	// The planes of these small keys all go through DEFLATE, so cutting the
	// payload short cuts the compressed stream: in the middle of the plane
	// bytes, or after them but before the stream's final block.
	truncated := valid.Packed[:len(valid.Packed)/2]
	unterminated := valid.Packed[:len(valid.Packed)-4]
	trailing := append(valid.Packed[:len(valid.Packed):len(valid.Packed)], 0)
	withStranger := cloneDict(state)
	withStranger["stranger"] = tensor.RandN(rng, 1, 4)
	strangerNext := cloneDict(withStranger)
	mutate(rng, strangerNext, 1, "lin.b", "stranger")
	unknown, err := packDelta(nil, withStranger, strangerNext, []string{"lin.b", "stranger"})
	if err != nil {
		t.Fatal(err)
	}
	resized := cloneDict(state)
	resized["lin.w"] = tensor.RandN(rng, 1, 4, 4)
	resizedNext := cloneDict(resized)
	mutate(rng, resizedNext, 1, "lin.b", "lin.w")
	wrongSize, err := packDelta(nil, resized, resizedNext, []string{"lin.b", "lin.w"})
	if err != nil {
		t.Fatal(err)
	}

	ptrs, bits := snapshotDict(tr.Dict)
	for _, tc := range []struct {
		name   string
		packed []byte
	}{
		{"truncated plane stream", truncated},
		{"plane stream without its final block", unterminated},
		{"trailing byte", trailing},
		{"unknown key", unknown},
		{"wrong-size key", wrongSize},
	} {
		if _, _, _, err := tr.Apply(&Frame{Kind: KindDelta, BaseVersion: 1, Version: 2, Patch: Patch{Packed: tc.packed}}); err == nil {
			t.Fatalf("%s: Apply accepted a corrupt delta", tc.name)
		}
		if tr.Version != 1 {
			t.Fatalf("%s: rejected delta moved the tracker to version %d", tc.name, tr.Version)
		}
		requireUnchanged(t, tc.name, tr.Dict, ptrs, bits)
	}
	if _, _, _, err := tr.Apply(&Frame{Kind: KindDelta, BaseVersion: 1, Version: 2, Patch: *valid}); err != nil {
		t.Fatal(err)
	}
	if tr.Version != 2 {
		t.Fatalf("valid delta left the tracker at version %d", tr.Version)
	}
	for k, p := range ptrs {
		if tr.Dict[k] != p {
			t.Fatalf("key %q was decoded into a new tensor, not in place", k)
		}
	}
	requireSameDict(t, "applied in place", next, tr.Dict)
}

// TestDecodeRejectsCorruptPatches covers the decode-side validation edges:
// only a full snapshot or a packed delta against a base can arrive, so every
// other shape — including the ones the retired sparsifying codec used to
// emit — is hostile.
func TestDecodeRejectsCorruptPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := randDict(rng)
	next := cloneDict(base)
	mutate(rng, next, 1, "lin.b")
	full, err := Delta{}.Encode(nil, next)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := Delta{}.Encode(base, next)
	if err != nil {
		t.Fatal(err)
	}
	sparse := []SparseEntry{{Key: "lin.b", Idx: []int64{0}, Val: []float64{1}}}
	for _, tc := range []struct {
		name string
		base map[string]*tensor.Tensor
		p    Patch
		want string
	}{
		{"delta patch without base", nil, Patch{}, "without a base"},
		{"sparse entries on a delta patch", base, Patch{Sparse: sparse}, "sparse"},
		{"sparse entries beside packed bytes", base, Patch{Packed: delta.Packed, Sparse: sparse}, "sparse"},
		{"sparse entries on a full patch", nil, Patch{Full: true, Dense: full.Dense, Sparse: sparse}, "sparse"},
		{"non-full patch carrying dense bytes", base, Patch{Dense: full.Dense}, "dense"},
		{"non-full patch carrying dense and packed bytes", base, Patch{Dense: full.Dense, Packed: delta.Packed}, "dense"},
		{"full patch carrying packed bytes", base, Patch{Full: true, Dense: full.Dense, Packed: delta.Packed}, "packed"},
	} {
		if _, err := Decode(tc.base, &tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a rejection naming %q", tc.name, err, tc.want)
		}
	}
	// The same rejection holds on both ends of a connection: a worker's
	// Tracker.Apply decodes through Decode's path, so a frame carrying
	// sparse entries leaves the tracker untouched.
	var tr Tracker
	if _, _, _, err := tr.Apply(&Frame{Kind: KindFull, Version: 1, Patch: Patch{Full: true, Dense: full.Dense, Sparse: sparse}}); err == nil {
		t.Fatal("Tracker.Apply accepted a patch carrying sparse entries")
	}
	if tr.Version != 0 || tr.Dict != nil {
		t.Fatalf("rejected frame mutated the tracker: version %d", tr.Version)
	}
}

// TestTrackerVersionMismatch drives the receiver state machine through the
// version-mismatch rejections: a delta against the wrong base, a delta with
// no base at all, a no-op frame for a version the receiver does not hold,
// and a silently skewed payload version. Apply and the coordinator's
// Encoder.Advance both run Tracker.Validate, so these rejections hold
// symmetrically.
func TestTrackerVersionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dict := randDict(rng)
	full, err := Delta{}.Encode(nil, dict)
	if err != nil {
		t.Fatal(err)
	}

	var tr Tracker
	if _, _, _, err := tr.Apply(&Frame{Kind: KindDelta, BaseVersion: 1, Version: 2, Patch: Patch{}}); err == nil || !strings.Contains(err.Error(), "no state") {
		t.Fatalf("delta with no base: %v", err)
	}
	if _, _, _, err := tr.Apply(&Frame{Kind: KindNone, Version: 3}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("no-op frame for unheld version: %v", err)
	}
	if _, _, _, err := tr.Apply(&Frame{Kind: KindFull, Version: 1, Patch: *full}); err != nil {
		t.Fatal(err)
	}
	if tr.Version != 1 || tr.Dict == nil {
		t.Fatalf("tracker after full frame: %+v", tr.Version)
	}
	if _, _, _, err := tr.Apply(&Frame{Kind: KindDelta, BaseVersion: 5, Version: 6, Patch: Patch{}}); err == nil || !strings.Contains(err.Error(), "base version") {
		t.Fatalf("delta against wrong base: %v", err)
	}
	if _, _, _, err := tr.Apply(&Frame{Kind: KindNone, Version: 1, PayloadVersion: 9}); err == nil || !strings.Contains(err.Error(), "payload version") {
		t.Fatalf("payload version skew: %v", err)
	}
	// Mismatches must not have advanced anything.
	if tr.Version != 1 || tr.PayloadVersion != 0 {
		t.Fatalf("rejected frames mutated the tracker: %+v", tr)
	}
}

// TestEncoderVersionsAndPayloadSkipping drives a coordinator/worker pair
// through three rounds: the payload is re-sent only when its bytes change,
// deltas chain across rounds, and Encoder.Advance — which decodes nothing —
// keeps the coordinator's mirror tracker in lockstep with what the worker
// reconstructs from the frame.
func TestEncoderVersionsAndPayloadSkipping(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var enc Encoder
	coordView := &Tracker{} // coordinator's mirror of the worker
	var workerView Tracker  // the worker's own tracker

	state := randDict(rng)
	payload := []byte("teacher-v1")
	for round := 0; round < 3; round++ {
		if round == 2 {
			payload = []byte("teacher-v2") // task boundary: payload changes
		}
		enc.SetRound(cloneDict(state), payload)
		f, err := enc.FrameFor(coordView, true)
		if err != nil {
			t.Fatal(err)
		}
		switch round {
		case 0:
			if f.Kind != KindFull || !f.HasPayload {
				t.Fatalf("round 0 frame: kind %v hasPayload %v, want full frame with payload", f.Kind, f.HasPayload)
			}
		case 1:
			if f.Kind != KindDelta || f.HasPayload {
				t.Fatalf("round 1 frame: kind %v hasPayload %v, want delta without payload", f.Kind, f.HasPayload)
			}
		case 2:
			if f.Kind != KindDelta || !f.HasPayload || !bytes.Equal(f.Payload, []byte("teacher-v2")) {
				t.Fatalf("round 2 frame: kind %v hasPayload %v, want delta with the new payload", f.Kind, f.HasPayload)
			}
		}
		if _, _, _, err := workerView.Apply(f); err != nil {
			t.Fatal(err)
		}
		if err := enc.Advance(coordView, f); err != nil {
			t.Fatal(err)
		}
		if coordView.Version != workerView.Version || coordView.PayloadVersion != workerView.PayloadVersion {
			t.Fatalf("round %d: coordinator mirror (v%d,p%d) out of step with worker (v%d,p%d)",
				round, coordView.Version, coordView.PayloadVersion, workerView.Version, workerView.PayloadVersion)
		}
		requireSameDict(t, "mirror", workerView.Dict, coordView.Dict)
		requireSameDict(t, "installed state", state, workerView.Dict)
		mutate(rng, state, 0.5, "conv.w", "lin.w") // next round's aggregate
	}

	// An idle worker's frame carries nothing and leaves versions lagging.
	idle := &Tracker{}
	f, err := enc.FrameFor(idle, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindNone || f.HasPayload {
		t.Fatalf("idle frame: %+v", f)
	}
	if _, _, _, err := idle.Apply(f); err != nil {
		t.Fatal(err)
	}
	// When the idle worker later gets work with no base, it falls back to a
	// full snapshot.
	f, err = enc.FrameFor(idle, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindFull || !f.Patch.Full {
		t.Fatalf("worker with no base must get a full snapshot, got kind %v", f.Kind)
	}
}

// TestBufferEncodeMatchesEncode pins Buffer against the codec it wraps:
// for a delta against a base and for the full snapshot without one,
// Buffer.Encode yields exactly the patch Delta.Encode does, and a second
// patch of the same size is written into the storage the first one grew
// rather than a new slice.
func TestBufferEncodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randDict(rng)
	next := cloneDict(base)
	mutate(rng, next, 1, "conv.w", "lin.w", "lin.b", "scalar")
	for _, base := range []map[string]*tensor.Tensor{base, nil} {
		var buf Buffer
		want, err := Delta{}.Encode(base, next)
		if err != nil {
			t.Fatal(err)
		}
		if want.Full != (base == nil) {
			t.Fatalf("base %v: patch Full = %v", base != nil, want.Full)
		}
		var first []byte
		for i := 0; i < 2; i++ {
			got, err := buf.Encode(base, next)
			if err != nil {
				t.Fatal(err)
			}
			if got.Full != want.Full || !bytes.Equal(got.Dense, want.Dense) || !bytes.Equal(got.Packed, want.Packed) {
				t.Fatalf("base %v: Buffer.Encode differs from Encode", base != nil)
			}
			out := got.Packed
			if got.Full {
				out = got.Dense
			}
			if i == 0 {
				first = out
			} else if &out[0] != &first[0] {
				t.Fatalf("base %v: the second patch did not reuse the buffer", base != nil)
			}
		}
	}
}
