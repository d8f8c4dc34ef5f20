package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"reffil/internal/tensor"
)

// Reference plane kernels: the element-at-a-time shuffle and unshuffle and
// the single-histogram entropy gate. They state the packed format's plane
// layout and raw/deflate decision in the plainest form, and the tests below
// hold the word-wide kernels in pack.go to them byte for byte.

// refShufflePlanes writes byte p (most significant first) of every
// element's XOR word to planes[p*total+i].
func refShufflePlanes(planes []byte, spans []span, total int) {
	for _, sp := range spans {
		for rel := range sp.base {
			x := math.Float64bits(sp.base[rel]) ^ math.Float64bits(sp.data[rel])
			for p := 0; p < 8; p++ {
				planes[p*total+sp.off+rel] = byte(x >> (8 * (7 - p)))
			}
		}
	}
}

// refUnshufflePlanes gathers every element's 8 plane bytes back into its XOR
// word and writes base XOR word into the span's output.
func refUnshufflePlanes(planes []byte, spans []span, total int) {
	for _, sp := range spans {
		for rel := range sp.base {
			var x uint64
			for p := 0; p < 8; p++ {
				x |= uint64(planes[p*total+sp.off+rel]) << (8 * (7 - p))
			}
			sp.data[rel] = math.Float64frombits(math.Float64bits(sp.base[rel]) ^ x)
		}
	}
}

// refPlaneEntropy is the order-0 entropy of a plane, from one histogram.
func refPlaneEntropy(plane []byte) float64 {
	var hist [256]int
	for _, v := range plane {
		hist[v]++
	}
	n := float64(len(plane))
	bits := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		bits -= p * math.Log2(p)
	}
	return bits
}

// lcgUniform writes a seeded sequence of values in [-1, 1) — the generator
// the benchmark's synthetic model draws its weights from — and returns the
// generator's state.
func lcgUniform(d []float64, state uint64) uint64 {
	for i := range d {
		state = state*6364136223846793005 + 1442695040888963407
		d[i] = float64(int64(state)>>11) / (1 << 52)
	}
	return state
}

// perturb adds a 1e-3·(U−0.5) step to every element, the update the
// benchmark's synthetic model makes: every element's low mantissa bits change.
func perturb(d []float64, state uint64) uint64 {
	for i := range d {
		state = state*6364136223846793005 + 1442695040888963407
		d[i] += 1e-3 * (float64(state>>11)/(1<<53) - 0.5)
	}
	return state
}

// goldenPackDicts is the fixed (base, next) pair TestPackedMatchesGoldenBytes
// packs. Key sizes straddle the 8-element group and the planeBlock boundary,
// one key is fully rewritten and one is unchanged; the 5218-element planes
// leave the low mantissa planes above rawPlaneMinLen bytes of noise, so the
// raw mask is set while the sign/exponent planes still go through DEFLATE.
func goldenPackDicts() (base, next map[string]*tensor.Tensor, keys []string) {
	shapes := []struct {
		name  string
		shape []int
	}{
		{"a.one", []int{1}},
		{"b.five", []int{5}},
		{"c.seven", []int{7}},
		{"d.eight", []int{2, 4}},
		{"e.nine", []int{9}},
		{"f.under", []int{31, 33}},
		{"g.block", []int{1024}},
		{"h.over", []int{5, 205}},
		{"i.noise", []int{3, 701}},
		{"j.same", []int{13}},
	}
	base = make(map[string]*tensor.Tensor, len(shapes))
	next = make(map[string]*tensor.Tensor, len(shapes))
	state := uint64(30)
	for _, s := range shapes {
		bt := tensor.New(s.shape...)
		state = lcgUniform(bt.Data(), state)
		nt := bt.Clone()
		switch s.name {
		case "i.noise":
			state = lcgUniform(nt.Data(), state)
		case "j.same":
		default:
			state = perturb(nt.Data(), state)
		}
		base[s.name], next[s.name] = bt, nt
		keys = append(keys, s.name)
	}
	return base, next, keys
}

// goldenPackedSHA256 is the SHA-256 of packDelta's output for
// goldenPackDicts, recorded from the element-at-a-time kernels.
const goldenPackedSHA256 = "1d832866f1631fbf36a59b9c8375d5232abc67a09e33a43dc82c2235851a83f4"

// packedRawMask parses a packed payload's key headers and returns its
// raw-plane mask byte.
func packedRawMask(t *testing.T, packed []byte) byte {
	t.Helper()
	pos := 0
	next := func() uint64 {
		v, n := binary.Uvarint(packed[pos:])
		if n <= 0 {
			t.Fatalf("packed header: bad uvarint at byte %d", pos)
		}
		pos += n
		return v
	}
	for k := next(); k > 0; k-- {
		pos += int(next()) // name
		for r := next(); r > 0; r-- {
			next()
		}
	}
	return packed[pos]
}

// TestPackedMatchesGoldenBytes pins the packed payload byte for byte: plane
// layout, entropy gate and DEFLATE stream. A kernel rewrite that changes one
// output byte breaks it; a deliberate format change needs a ProtocolVersion
// bump and a new digest.
func TestPackedMatchesGoldenBytes(t *testing.T) {
	base, next, keys := goldenPackDicts()
	packed, err := packDelta(nil, base, next, keys)
	if err != nil {
		t.Fatal(err)
	}
	if mask := packedRawMask(t, packed); mask == 0 || mask == 0xff {
		t.Fatalf("raw mask %08b: the fixture must ship some planes raw and deflate the rest", mask)
	}
	sum := sha256.Sum256(packed)
	if got := hex.EncodeToString(sum[:]); got != goldenPackedSHA256 {
		t.Errorf("packed payload of %d bytes has SHA-256 %s, want %s", len(packed), got, goldenPackedSHA256)
	}
	got, err := Decode(base, &Patch{Packed: packed})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDict(t, "golden packed", next, got)
}

// planeLayout lays out spans of the given sizes over one flat index space:
// base uniform in [-1, 1), data a perturbed copy (the next dict), out a
// zeroed decode target per span.
func planeLayout(sizes []int) (spans, out []span, total int) {
	state := uint64(len(sizes))
	for _, n := range sizes {
		b := make([]float64, n)
		state = lcgUniform(b, state)
		d := append([]float64(nil), b...)
		state = perturb(d, state)
		spans = append(spans, span{off: total, base: b, data: d})
		out = append(out, span{off: total, base: b, data: make([]float64, n)})
		total += n
	}
	return spans, out, total
}

// shortSpans splits total into spans of 1 to 7 elements.
func shortSpans(total int) []int {
	var sizes []int
	for left, i := total, 0; left > 0; i++ {
		n := min(1+i*5%7, left)
		sizes = append(sizes, n)
		left -= n
	}
	return sizes
}

// requirePlanesMatch runs shufflePlanes and unshufflePlanes over one layout
// and holds them to the reference kernels: identical plane bytes, and
// decoded outputs bit-identical to the reference decode and to next.
func requirePlanesMatch(t *testing.T, label string, sizes []int) {
	t.Helper()
	spans, out, total := planeLayout(sizes)
	want := make([]byte, 8*total)
	refShufflePlanes(want, spans, total)
	got := make([]byte, 8*total)
	shufflePlanes(got, spans, total)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: total %d: plane %d byte %d is %#02x, reference %#02x", label, total, i/total, i%total, got[i], want[i])
		}
	}
	_, refOut, _ := planeLayout(sizes)
	refUnshufflePlanes(want, refOut, total)
	unshufflePlanes(want, out, total)
	for s, sp := range spans {
		for i, v := range out[s].data {
			if math.Float64bits(v) != math.Float64bits(refOut[s].data[i]) || math.Float64bits(v) != math.Float64bits(sp.data[i]) {
				t.Fatalf("%s: total %d: span %d element %d decoded to %v, reference %v, next %v", label, total, s, i, v, refOut[s].data[i], sp.data[i])
			}
		}
	}
}

// TestPlaneKernelsMatchReference holds the word-wide plane kernels to the
// reference kernels:
//   - totals: shuffle and unshuffle at every total from 0 to 2·planeBlock+13,
//     once as a single span and once as spans of 1 to 7 elements, so groups
//     of 8 straddle span ends and every block tail length occurs;
//   - gate: the 4-histogram entropy bit for bit, and so the raw/deflate
//     decision, at lengths either side of rawPlaneMinLen and of every residue
//     mod 4, over zero, skewed, near-threshold and uniform bytes.
func TestPlaneKernelsMatchReference(t *testing.T) {
	t.Run("totals", func(t *testing.T) {
		for total := 0; total <= 2*planeBlock+13; total++ {
			requirePlanesMatch(t, "one span", []int{total})
			requirePlanesMatch(t, "short spans", shortSpans(total))
		}
	})
	t.Run("gate", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		fill := func(b []byte, k int) {
			for i := range b {
				b[i] = byte(rng.Intn(k))
			}
		}
		contents := []struct {
			name string
			fill func(b []byte)
		}{
			{"zeros", func(b []byte) {}},
			{"skewed", func(b []byte) { fill(b, 16) }},
			{"193 symbols", func(b []byte) { fill(b, 193) }},
			{"195 symbols", func(b []byte) { fill(b, 195) }},
			{"noise", func(b []byte) { rng.Read(b) }},
		}
		lengths := []int{0, 1, 2, 3, 5, 7, rawPlaneMinLen - 1, rawPlaneMinLen, rawPlaneMinLen + 1, rawPlaneMinLen + 2, rawPlaneMinLen + 3, 4093}
		for _, c := range contents {
			for _, n := range lengths {
				b := make([]byte, n)
				c.fill(b)
				got, want := planeEntropy(b), refPlaneEntropy(b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s, %d bytes: entropy %v, reference %v", c.name, n, got, want)
				}
				if gate, ref := planeIncompressible(b), n >= rawPlaneMinLen && want > rawPlaneBits; gate != ref {
					t.Errorf("%s, %d bytes: incompressible = %v, reference %v", c.name, n, gate, ref)
				}
			}
		}
		noise := make([]byte, rawPlaneMinLen)
		rng.Read(noise)
		if planeIncompressible(noise[:rawPlaneMinLen-1]) || !planeIncompressible(noise) {
			t.Error("noise must flip to raw exactly at rawPlaneMinLen bytes")
		}
	})
}
