package wire

import (
	"fmt"
	"math/rand"
	"testing"

	"reffil/internal/tensor"
)

// benchDicts builds a realistic (base, next) pair: nKeys tensors of elems
// elements whose next values sit a small training step away from the base,
// so the XOR planes have the same leading-zero structure the LwF steady
// state shows.
func benchDicts(nKeys, elems int) (base, next map[string]*tensor.Tensor, keys []string) {
	rng := rand.New(rand.NewSource(7))
	base = make(map[string]*tensor.Tensor, nKeys)
	next = make(map[string]*tensor.Tensor, nKeys)
	for i := 0; i < nKeys; i++ {
		k := string(rune('a'+i%26)) + "/weight" + string(rune('0'+i/26))
		bt := tensor.RandN(rng, 1, elems)
		nt := bt.Clone()
		nd := nt.Data()
		for j := range nd {
			nd[j] += rng.NormFloat64() * 1e-3
		}
		base[k] = bt
		next[k] = nt
		keys = append(keys, k)
	}
	return base, next, keys
}

// denseDicts is the tcp_synth_dense update: 64 keys × 16,384 uniform [-1, 1)
// weights, every element moved by 1e-3·(U−0.5).
func denseDicts() (base, next map[string]*tensor.Tensor, keys []string) {
	const nKeys, elems = 64, 16384
	base = make(map[string]*tensor.Tensor, nKeys)
	next = make(map[string]*tensor.Tensor, nKeys)
	state := uint64(1)
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("w%03d", i)
		bt := tensor.New(1, elems)
		state = lcgUniform(bt.Data(), state)
		nt := bt.Clone()
		state = perturb(nt.Data(), state)
		base[k], next[k] = bt, nt
		keys = append(keys, k)
	}
	return base, next, keys
}

// packBenchShapes are the payload shapes the pack benchmarks run at.
var packBenchShapes = []struct {
	name  string
	dicts func() (base, next map[string]*tensor.Tensor, keys []string)
}{
	{"close", func() (base, next map[string]*tensor.Tensor, keys []string) { return benchDicts(32, 8192) }},
	{"dense", denseDicts},
}

func BenchmarkPackDelta(b *testing.B) {
	for _, s := range packBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			base, next, keys := s.dicts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := packDelta(nil, base, next, keys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnpackDelta(b *testing.B) {
	for _, s := range packBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			base, next, keys := s.dicts()
			packed, err := packDelta(nil, base, next, keys)
			if err != nil {
				b.Fatal(err)
			}
			p := &Patch{Packed: packed}
			var buf DecodeBuffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := buf.Decode(base, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// densePlanes returns the dense update's spans (data = next) and a plane
// buffer holding its significance planes.
func densePlanes() (spans []span, planes []byte, total int) {
	base, next, keys := denseDicts()
	for _, k := range keys {
		spans = append(spans, span{off: total, base: base[k].Data(), data: next[k].Data()})
		total += base[k].Size()
	}
	planes = make([]byte, 8*total)
	shufflePlanes(planes, spans, total)
	return spans, planes, total
}

func BenchmarkShufflePlanes(b *testing.B) {
	spans, planes, total := densePlanes()
	b.SetBytes(int64(len(planes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shufflePlanes(planes, spans, total)
	}
}

func BenchmarkUnshufflePlanes(b *testing.B) {
	spans, planes, total := densePlanes()
	out := make([]span, len(spans))
	for i, sp := range spans {
		out[i] = span{off: sp.off, base: sp.base, data: make([]float64, len(sp.base))}
	}
	b.SetBytes(int64(len(planes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unshufflePlanes(planes, out, total)
	}
}

// gateSink keeps BenchmarkPlaneGate's decisions live.
var gateSink int

// BenchmarkPlaneGate runs the entropy gate over all 8 planes of the dense
// update, as packDelta does.
func BenchmarkPlaneGate(b *testing.B) {
	_, planes, total := densePlanes()
	b.SetBytes(int64(len(planes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < 8; p++ {
			if planeIncompressible(planes[p*total : (p+1)*total]) {
				gateSink++
			}
		}
	}
}
