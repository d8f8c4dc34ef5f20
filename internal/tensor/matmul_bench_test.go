package tensor

import (
	"math/rand"
	"testing"
)

// Kernel microbenchmarks. Shapes are training-scale for this repo's models:
// the classifier matmul is (batch, feature) x (feature, classes), the
// attention/backbone matmuls run a few hundred wide.

func BenchmarkMatMul(b *testing.B) {
	const m, k, n = 128, 384, 512
	rng := rand.New(rand.NewSource(9))
	x, y := RandN(rng, 1, m, k), RandN(rng, 1, k, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulT1(b *testing.B) {
	const m, k, n = 128, 384, 512
	rng := rand.New(rand.NewSource(10))
	x, y := RandN(rng, 1, k, m), RandN(rng, 1, k, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulT1(x, y)
	}
}

func BenchmarkMatMulT2(b *testing.B) {
	const m, k, n = 128, 384, 512
	rng := rand.New(rand.NewSource(11))
	x, y := RandN(rng, 1, m, k), RandN(rng, 1, n, k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulT2(x, y)
	}
}

func BenchmarkBatchMatMul(b *testing.B) {
	const bs, m, k, n = 8, 64, 96, 192
	rng := rand.New(rand.NewSource(12))
	x, y := RandN(rng, 1, bs, m, k), RandN(rng, 1, bs, k, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BatchMatMul(x, y)
	}
}
