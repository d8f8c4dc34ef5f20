package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// shape is an (m,k)·(k,n) matmul.
type shape struct{ m, k, n int }

// Kernel microbenchmarks at the shapes the paper model runs. censusShapes are
// among the largest (m,k,n) products by FLOPs of a seed-1 RefFiL-on-PACS
// mini run, mostly the ResNet's Conv2D: its forward (MatMul, o×kk×pixels),
// weight gradient (MatMulT2, o×pixels×kk) and column gradient (MatMulT1,
// kk×o×pixels). Each kernel is timed at every shape, so a change that helps
// one orientation at the expense of another shows.
var censusShapes = []shape{
	{4, 36, 256},
	{4, 256, 36},
	{36, 4, 256},
	{96, 32, 32},
	{8, 72, 64},
	{32, 288, 4},
	{9, 9, 8},
}

// benchShapes runs kernel once per census shape and tile path as a
// sub-benchmark named m×k×n/avx or m×k×n/go (bothTiles), so the two tiles'
// ratio is one command away; operands draws the two inputs for one shape.
func benchShapes(b *testing.B, seed int64, operands func(rng *rand.Rand, m, k, n int) (x, y *Tensor), kernel func(x, y *Tensor) *Tensor) {
	for _, s := range censusShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			x, y := operands(rand.New(rand.NewSource(seed)), s.m, s.k, s.n)
			bothTiles(b, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					kernel(x, y)
				}
			})
		})
	}
}

func BenchmarkMatMul(b *testing.B) {
	benchShapes(b, 9, func(rng *rand.Rand, m, k, n int) (x, y *Tensor) {
		return RandN(rng, 1, m, k), RandN(rng, 1, k, n)
	}, MatMul)
}

func BenchmarkMatMulT1(b *testing.B) {
	benchShapes(b, 10, func(rng *rand.Rand, m, k, n int) (x, y *Tensor) {
		return RandN(rng, 1, k, m), RandN(rng, 1, k, n)
	}, MatMulT1)
}

func BenchmarkMatMulT2(b *testing.B) {
	benchShapes(b, 11, func(rng *rand.Rand, m, k, n int) (x, y *Tensor) {
		return RandN(rng, 1, m, k), RandN(rng, 1, n, k)
	}, MatMulT2)
}

// BenchmarkBatchMatMul times an attention score product: batch×heads
// elements of Q (tokens × head width) against Kᵀ, at the model's head width
// of 8 (TokenDim 32 over 4 heads).
func BenchmarkBatchMatMul(b *testing.B) {
	const bs, m, k, n = 16, 24, 8, 24
	rng := rand.New(rand.NewSource(12))
	x, y := RandN(rng, 1, bs, m, k), RandN(rng, 1, bs, k, n)
	bothTiles(b, func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			BatchMatMul(x, y)
		}
	})
}
