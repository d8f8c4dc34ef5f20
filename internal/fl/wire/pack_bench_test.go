package wire

import (
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

func BenchmarkPackDelta(b *testing.B) {
	base, next, keys := benchDicts(32, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packDelta(nil, base, next, keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackDelta(b *testing.B) {
	base, next, keys := benchDicts(32, 8192)
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
}
