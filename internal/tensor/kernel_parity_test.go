package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The tests in this file pin the repo's kernel determinism contract: every
// matmul kernel must be bit-for-bit identical to a serial reference loop at
// any worker count — fanning rows or batch elements out reorders which
// independent elements are computed when, never how any one element
// accumulates over the shared dimension p.

// randOperand draws a (rows, cols) matrix with exact zeros sprinkled in so
// the kernels' av == 0 skip path is exercised by every comparison.
func randOperand(rng *rand.Rand, rows, cols int) *Tensor {
	t := RandN(rng, 1, rows, cols)
	d := t.Data()
	for i := 0; i < len(d); i += 7 {
		d[i] = 0
	}
	return t
}

// requireBitIdentical fails unless got and want hold exactly the same bit
// patterns ("==" would conflate -0.0 with +0.0 and miss NaN payloads).
func requireBitIdentical(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: size mismatch: got %d elements, want %d", name, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: element %d differs bitwise: got %v (%#x), want %v (%#x)",
				name, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
}

// serialAndParallel runs f once with helper fan-out disabled (GOMAXPROCS=1
// is the Workers=1 configuration: internal/parallel caps each For call at
// the live GOMAXPROCS) and once at the machine's full width, and hands both
// results to check.
func serialAndParallel(t *testing.T, f func() *Tensor, check func(name string, got *Tensor)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	serial := f()
	runtime.GOMAXPROCS(prev)
	check("workers=1", serial)
	check("workers=max", f())
}

// kernelShapes range from a single element to widths of a few hundred
// columns, with odd and ragged sizes on every axis.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{17, 33, 128},
	{4, 9, 129},
	{5, 21, 165},
	{2, 16, 256},
	{7, 11, 309},
}

func TestMatMulBlockedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range kernelShapes {
		a := randOperand(rng, s.m, s.k)
		b := randOperand(rng, s.k, s.n)
		want := New(s.m, s.n)
		matmulRows(want.data, a.data, b.data, 0, s.m, s.k, s.n)
		serialAndParallel(t, func() *Tensor { return MatMul(a, b) }, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}

func TestMatMulT1BlockedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range kernelShapes {
		a := randOperand(rng, s.k, s.m)
		b := randOperand(rng, s.k, s.n)
		want := New(s.m, s.n)
		for p := 0; p < s.k; p++ {
			ap := a.data[p*s.m : (p+1)*s.m]
			bp := b.data[p*s.n : (p+1)*s.n]
			for i := 0; i < s.m; i++ {
				av := ap[i]
				if av == 0 {
					continue
				}
				ci := want.data[i*s.n : (i+1)*s.n]
				for j := range bp {
					ci[j] += av * bp[j]
				}
			}
		}
		serialAndParallel(t, func() *Tensor { return MatMulT1(a, b) }, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}

func TestMatMulT2BlockedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range kernelShapes {
		a := randOperand(rng, s.m, s.k)
		b := randOperand(rng, s.n, s.k)
		want := New(s.m, s.n)
		for i := 0; i < s.m; i++ {
			ai := a.data[i*s.k : (i+1)*s.k]
			for j := 0; j < s.n; j++ {
				bj := b.data[j*s.k : (j+1)*s.k]
				sum := 0.0
				for p := range ai {
					sum += ai[p] * bj[p]
				}
				want.data[i*s.n+j] = sum
			}
		}
		serialAndParallel(t, func() *Tensor { return MatMulT2(a, b) }, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}

func TestBatchMatMulBlockedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, s := range kernelShapes {
		const bs = 3
		a := randOperand(rng, bs*s.m, s.k).Reshape(bs, s.m, s.k)
		b := randOperand(rng, bs*s.k, s.n).Reshape(bs, s.k, s.n)
		want := New(bs, s.m, s.n)
		for i := 0; i < bs; i++ {
			matmulRows(want.data[i*s.m*s.n:(i+1)*s.m*s.n], a.data[i*s.m*s.k:(i+1)*s.m*s.k], b.data[i*s.k*s.n:(i+1)*s.k*s.n], 0, s.m, s.k, s.n)
		}
		serialAndParallel(t, func() *Tensor { return BatchMatMul(a, b) }, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}
