package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"reffil/internal/tensor"
)

func sampleDict(rng *rand.Rand) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"layer.w":  tensor.RandN(rng, 1, 3, 4),
		"layer.b":  tensor.RandN(rng, 1, 4),
		"scalarly": tensor.Scalar(math.Pi),
		"special":  tensor.FromSlice([]float64{0, -0, math.MaxFloat64, -math.SmallestNonzeroFloat64}, 4),
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dict := sampleDict(rng)
	enc, err := Marshal(dict)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(dict) {
		t.Fatalf("entries %d, want %d", len(back), len(dict))
	}
	for k, v := range dict {
		got, ok := back[k]
		if !ok {
			t.Fatalf("missing entry %q", k)
		}
		if !got.SameShape(v) {
			t.Fatalf("entry %q shape %v, want %v", k, got.Shape(), v.Shape())
		}
		if !got.AllClose(v, 0) {
			t.Fatalf("entry %q data corrupted", k)
		}
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dict := sampleDict(rng)
	a, err := Marshal(dict)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(dict)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same dict must serialize identically")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := Unmarshal([]byte("NOTACKPT plus junk")); err == nil {
		t.Fatal("bad magic must error")
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full, err := Marshal(sampleDict(rng))
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, never panic.
	for _, cut := range []int{4, 8, 12, 20, len(full) / 2, len(full) - 1} {
		if _, err := Unmarshal(full[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes must error", cut)
		}
	}
}

func TestLoadRejectsHostileHeader(t *testing.T) {
	// Craft a header claiming a gigantic tensor; Unmarshal must refuse
	// before allocating.
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{1, 0, 0, 0}) // count = 1
	buf.Write([]byte{1, 0})       // name length 1
	buf.WriteByte('x')            // name
	buf.WriteByte(2)              // rank 2
	for i := 0; i < 2; i++ {      // dims: 2^40 each
		buf.Write([]byte{0, 0, 0, 0, 0, 1, 0, 0})
	}
	if _, err := Unmarshal(buf.Bytes()); err == nil {
		t.Fatal("hostile dims must be rejected")
	}
}

// TestUnmarshalRefusesMissingData decodes a 24-byte header that declares
// one MaxElems-element tensor and carries none of its data: the refusal
// comes from the bytes left, before the 32 MiB tensor is allocated.
func TestUnmarshalRefusesMissingData(t *testing.T) {
	b := append(append([]byte(nil), magic[:]...), 1, 0, 0, 0, 1, 0, 'x', 1)
	b = binary.LittleEndian.AppendUint64(b, MaxElems)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a %d-byte header with no data behind it decoded", len(b))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("refusing a %d-byte input allocated %d B", len(b), got)
	}
}

// TestMarshalRefusesOversizedEntries holds the encoder to the bounds the
// decoder enforces: an entry Unmarshal would refuse is refused before a
// byte is written, inside a run snapshot too.
func TestMarshalRefusesOversizedEntries(t *testing.T) {
	for _, tc := range []struct {
		what string
		dict map[string]*tensor.Tensor
	}{
		{"MaxElems+1 elements", map[string]*tensor.Tensor{"w": tensor.New(MaxElems + 1)}},
		{"rank MaxDims+1", map[string]*tensor.Tensor{"w": tensor.New(slices.Repeat([]int{1}, MaxDims+1)...)}},
		{"a long name", map[string]*tensor.Tensor{strings.Repeat("x", MaxNameLen+1): tensor.Scalar(1)}},
	} {
		if b, err := Marshal(tc.dict); err == nil {
			t.Fatalf("%s: Marshal wrote %d bytes", tc.what, len(b))
		}
		rs := sampleRunState(rand.New(rand.NewSource(19)))
		rs.Global = tc.dict
		var buf bytes.Buffer
		if err := SaveRunState(&buf, rs); err == nil || buf.Len() != 0 {
			t.Fatalf("%s: SaveRunState wrote %d bytes (err %v)", tc.what, buf.Len(), err)
		}
	}
}

// TestCheckEntryAllocatesNothing: encoders check every key of every dict
// they write, so a passing check may not allocate — not even the copy
// Tensor.Shape makes.
func TestCheckEntryAllocatesNothing(t *testing.T) {
	w := tensor.New(3, 4, 5)
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := CheckEntry("layer.w", w.NDim(), w.Dim); err != nil || n != w.Size() {
			t.Fatalf("CheckEntry = (%d, %v), want (%d, nil)", n, err, w.Size())
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckEntry allocated %v objects per call", allocs)
	}
}

func TestEmptyDictRoundTrip(t *testing.T) {
	enc, err := Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("empty dict round trip has %d entries", len(back))
	}
}

func TestDuplicateEntryRejected(t *testing.T) {
	// Hand-craft a stream with a duplicated name.
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{2, 0, 0, 0}) // count = 2
	for i := 0; i < 2; i++ {
		buf.Write([]byte{1, 0}) // name len 1
		buf.WriteByte('x')
		buf.WriteByte(0) // rank 0 (scalar)
		buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	}
	if _, err := Unmarshal(buf.Bytes()); err == nil {
		t.Fatal("duplicate entries must error")
	}
}

// goldenDict and goldenHex pin the byte format: the hex is what the
// encoder wrote for this dict before tensors moved through a chunk buffer.
func goldenDict() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"w":    tensor.FromSlice([]float64{1, math.Copysign(0, -1), math.NaN(), 0.5, -2.25, math.Inf(1)}, 2, 3),
		"bias": tensor.FromSlice([]float64{1e-300, -1e300}, 2),
		"s":    tensor.Scalar(math.Pi),
		"none": tensor.New(0, 4),
	}
}

const goldenHex = "52464c434b5054310400000004006269617301020000000000000059f3f8c21f6ea5019c7500883ce437fe" +
	"04006e6f6e65020000000000000000040000000000000001007300182d4454fb210940" +
	"0100770202000000000000000300000000000000000000000000f03f0000000000000080010000000000f87f" +
	"000000000000e03f00000000000002c0000000000000f07f"

func TestFormatMatchesGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(goldenDict())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Marshal wrote\n%x\nwant\n%x", got, want)
	}
	if cap(got) != len(want) {
		t.Fatalf("Marshal allocated %d bytes for a %d-byte encoding", cap(got), len(want))
	}
	back, err := Unmarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range goldenDict() {
		if !back[name].EqualBits(v) {
			t.Fatalf("entry %q decoded as %v, want %v", name, back[name], v)
		}
	}
	if len(back) != len(goldenDict()) {
		t.Fatalf("decoded %d entries, want %d", len(back), len(goldenDict()))
	}
}

// TestAllocsIndependentOfElementCount is the regression test for the
// per-element binary.Write/Read calls: a 64x larger tensor must cost the
// same number of allocations to encode and to decode.
func TestAllocsIndependentOfElementCount(t *testing.T) {
	allocs := func(elems int) (marshal, unmarshal float64) {
		dict := map[string]*tensor.Tensor{"w": tensor.Ones(elems)}
		enc, err := Marshal(dict)
		if err != nil {
			t.Fatal(err)
		}
		marshal = testing.AllocsPerRun(10, func() {
			if _, err := Marshal(dict); err != nil {
				t.Fatal(err)
			}
		})
		unmarshal = testing.AllocsPerRun(10, func() {
			if _, err := Unmarshal(enc); err != nil {
				t.Fatal(err)
			}
		})
		return marshal, unmarshal
	}
	smallM, smallU := allocs(1 << 10)
	largeM, largeU := allocs(1 << 16)
	if smallM != largeM || smallU != largeU {
		t.Fatalf("allocations grow with element count: Marshal %v -> %v, Unmarshal %v -> %v", smallM, largeM, smallU, largeU)
	}
}
