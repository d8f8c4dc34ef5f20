package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests in this file pin the repo's kernel determinism contract: every
// matmul kernel must be bit-for-bit identical to a naive triple loop, on
// the Go tiles and on the AVX ones. Tiling the output reorders which
// independent elements are computed when, never how any one element
// accumulates over the shared dimension p.

// kernelShapes are (m,k,n) for an (m,k)·(k,n) product: the census shapes
// the paper model runs (censusShapes, matmul_bench_test.go) and the tile's
// ragged edges: m = 1 and odd m (a 1-row tail), n ∈ {1,3,5} and n % 4 ≠ 0
// (a 1-column tail), k = 1, and widths of a few hundred columns.
var kernelShapes = append([]shape{
	{1, 1, 1},
	{1, 7, 5},
	{1, 13, 9},
	{2, 3, 1},
	{3, 1, 4},
	{3, 5, 7},
	{5, 1, 3},
	{5, 6, 5},
	{4, 9, 129},
	{5, 21, 165},
	{2, 16, 256},
	{7, 11, 309},
	{17, 33, 128},
}, censusShapes...)

// operands draws a logical A (m,k) and B (k,n), row-major, with values that
// exercise every branch of the kernels' per-(i,p) chain:
//   - exact zeros every 7th element of A and B (the zero-skip);
//   - −0 in A and in B;
//   - when m ≥ 2 and k ≥ 2, A(0,1) is zero while A(1,1) is not: a zero in only
//     one row of a tile's row pair;
//   - when k ≥ 2, A's column 0 is zero on every row, and B's row 0 holds +Inf,
//     −Inf and NaN. The zero-skipping kernels must leave those out of every
//     sum; MatMulT2, which skips nothing, turns those columns into NaN,
//     exactly as its reference does;
//   - when k ≥ 2, A's last rows (down to row 1) hold NaN, NaN, +Inf and −Inf,
//     one to a row, in column k−1: not zero, so every kernel must add them.
//     Two NaN rows put a NaN in both rows of a tile's row pair.
//
// Rows [0, clean) of A hold no NaN or Inf, so a zero-skipping kernel's
// output rows there must be finite.
func operands(rng *rand.Rand, m, k, n int) (a, b []float64, clean int) {
	a, b = RandN(rng, 1, m, k).Data(), RandN(rng, 1, k, n).Data()
	for i := 0; i < len(a); i += 7 {
		a[i] = 0
	}
	for i := 3; i < len(b); i += 7 {
		b[i] = 0
	}
	for i := 5; i < len(a); i += 11 {
		a[i] = math.Copysign(0, -1)
	}
	for i := 2; i < len(b); i += 11 {
		b[i] = math.Copysign(0, -1)
	}
	if k < 2 {
		return a, b, m
	}
	if m >= 2 {
		a[1], a[k+1] = 0, 1.5
	}
	for i := 0; i < m; i++ {
		a[i*k] = 0
	}
	b[0], b[n/2], b[n-1] = math.Inf(1), math.Inf(-1), math.NaN()
	clean = m
	for _, v := range []float64{math.NaN(), math.NaN(), math.Inf(1), math.Inf(-1)} {
		if clean == 1 {
			break
		}
		clean--
		a[clean*k+k-1] = v
	}
	return a, b, clean
}

// reference is the definition every kernel is held to: element (i,j) of
// A(m,k)·B(k,n) starts at init[i*n+j] and adds A(i,p)·B(p,j) over ascending
// p, skipping p where A(i,p) is exactly zero when skip is set.
//
// unpinned marks the elements whose chain had two NaNs with different
// payloads meet in one multiply or add. x86 returns the first operand's
// payload there, and Go does not fix the operand order: it may commute
// either operation, and a -race build of this very loop orders an add
// differently from a plain one. Such an element is held to being NaN, not to
// a payload.
func reference(init, a, b []float64, m, k, n int, skip bool) (c []float64, unpinned []bool) {
	c, unpinned = make([]float64, m*n), make([]bool, m*n)
	copy(c, init)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for p := 0; p < k; p++ {
				x, y := a[i*k+p], b[p*n+j]
				if skip && x == 0 {
					continue
				}
				xy := x * y
				if nanClash(x, y) || nanClash(s, xy) {
					unpinned[i*n+j] = true
				}
				s += xy
			}
			c[i*n+j] = s
		}
	}
	return c, unpinned
}

// nanClash reports whether u and v are NaNs with different payloads.
func nanClash(u, v float64) bool {
	return math.IsNaN(u) && math.IsNaN(v) && math.Float64bits(u) != math.Float64bits(v)
}

// transposed returns the (cols,rows) row-major transpose of a (rows,cols)
// row-major matrix.
func transposed(x []float64, rows, cols int) []float64 {
	t := make([]float64, len(x))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t[c*rows+r] = x[r*cols+c]
		}
	}
	return t
}

// requireBitIdentical fails unless got and want hold exactly the same bit
// patterns ("==" would conflate -0.0 with +0.0 and miss NaN payloads),
// except that an element reference marks unpinned need only be NaN in both.
// A nil unpinned pins every element.
func requireBitIdentical(t *testing.T, name string, got, want []float64, unpinned []bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: size mismatch: got %d elements, want %d", name, len(got), len(want))
	}
	for i := range got {
		if unpinned != nil && unpinned[i] && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs bitwise: got %v (%#x), want %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// requireFinite fails if any of the first rows×n elements is ±Inf or NaN: a
// zero-skipping kernel fed operands() must never add the non-finite B values
// under A's zeros.
func requireFinite(t *testing.T, name string, got []float64, rows, n int) {
	t.Helper()
	for i, v := range got[:rows*n] {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("%s: element %d is %v: a skipped product was added", name, i, v)
		}
	}
}

// bothTiles runs f as two subtests or sub-benchmarks: "avx" with the AVX
// tiles, skipped on a host without AVX, and "go" with them forced off. It
// restores useAVX afterwards.
func bothTiles[T interface {
	testing.TB
	Run(name string, f func(T)) bool
}](tb T, f func(T)) {
	hostAVX := useAVX
	defer func() { useAVX = hostAVX }()
	for _, avx := range []bool{true, false} {
		name := "go"
		if avx {
			name = "avx"
		}
		tb.Run(name, func(tb T) {
			if avx && !hostAVX {
				tb.Skip("host has no AVX")
			}
			useAVX = avx
			f(tb)
		})
	}
}

func TestMatMulBlockedMatchesSerial(t *testing.T) {
	bothTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, s := range kernelShapes {
			a, b, clean := operands(rng, s.m, s.k, s.n)
			at, bt := FromSlice(a, s.m, s.k), FromSlice(b, s.k, s.n)
			want, unpinned := reference(nil, a, b, s.m, s.k, s.n, true)
			name := fmt.Sprintf("MatMul %v", s)
			got := MatMul(at, bt).Data()
			requireBitIdentical(t, name, got, want, unpinned)
			requireFinite(t, name, got, clean, s.n)

			// MulInto adds into c: each chain starts at c's value.
			init := accumulatorInit(rng, s.m, s.n)
			want, unpinned = reference(init, a, b, s.m, s.k, s.n, true)
			got = append([]float64(nil), init...)
			MulInto(got, a, b, s.m, s.k, s.n)
			requireBitIdentical(t, fmt.Sprintf("MulInto %v", s), got, want, unpinned)
		}
	})
}

// accumulatorInit draws the (m,n) matrix a slice-level product adds into,
// with −0 every 5th element: −0 + +0 is +0, so a chain that started at 0
// instead of at c's value would differ there.
func accumulatorInit(rng *rand.Rand, m, n int) []float64 {
	init := RandN(rng, 1, m, n).Data()
	for i := 1; i < len(init); i += 5 {
		init[i] = math.Copysign(0, -1)
	}
	return init
}

// TestSliceProductsRefuseMismatchedLengths: MulInto, MulT1Into and MulT2Into
// panic when a slice does not hold its (m,k,n) operand exactly.
func TestSliceProductsRefuseMismatchedLengths(t *testing.T) {
	a, b, c := make([]float64, 6), make([]float64, 12), make([]float64, 8)
	for name, mul := range map[string]func(c, a, b []float64, m, k, n int){
		"MulInto": MulInto, "MulT1Into": MulT1Into, "MulT2Into": MulT2Into,
	} {
		for _, bad := range [][3][]float64{{c[:7], a, b}, {c, a[:5], b}, {c, a, b[:11]}, {c, append(a, 0), b}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted lengths %d, %d -> %d for (2,3,4)", name, len(bad[1]), len(bad[2]), len(bad[0]))
					}
				}()
				mul(bad[0], bad[1], bad[2], 2, 3, 4)
			}()
		}
		mul(c, a, b, 2, 3, 4) // the exact lengths are accepted
	}
}

func TestMatMulT1BlockedMatchesSerial(t *testing.T) {
	bothTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for _, s := range kernelShapes {
			a, b, clean := operands(rng, s.m, s.k, s.n)
			at, bt := FromSlice(transposed(a, s.m, s.k), s.k, s.m), FromSlice(b, s.k, s.n)
			want, unpinned := reference(nil, a, b, s.m, s.k, s.n, true)
			name := fmt.Sprintf("MatMulT1 %v", s)
			got := MatMulT1(at, bt).Data()
			requireBitIdentical(t, name, got, want, unpinned)
			requireFinite(t, name, got, clean, s.n)

			// MulT1Into adds into c: each chain starts at c's value.
			init := accumulatorInit(rng, s.m, s.n)
			want, unpinned = reference(init, a, b, s.m, s.k, s.n, true)
			got = append([]float64(nil), init...)
			MulT1Into(got, at.Data(), b, s.m, s.k, s.n)
			requireBitIdentical(t, fmt.Sprintf("MulT1Into %v", s), got, want, unpinned)
		}
	})
}

func TestMatMulT2BlockedMatchesSerial(t *testing.T) {
	bothTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for _, s := range kernelShapes {
			a, b, _ := operands(rng, s.m, s.k, s.n)
			at, bt := FromSlice(a, s.m, s.k), FromSlice(transposed(b, s.k, s.n), s.n, s.k)
			want, unpinned := reference(nil, a, b, s.m, s.k, s.n, false)
			requireBitIdentical(t, fmt.Sprintf("MatMulT2 %v", s), MatMulT2(at, bt).Data(), want, unpinned)
		}
	})
}

func TestBatchMatMulBlockedMatchesSerial(t *testing.T) {
	bothTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		for _, s := range kernelShapes {
			const bs = 3
			var a, b, want []float64
			var unpinned []bool
			var clean [bs]int
			for e := range bs {
				ae, be, ce := operands(rng, s.m, s.k, s.n)
				a, b, clean[e] = append(a, ae...), append(b, be...), ce
				we, ue := reference(nil, ae, be, s.m, s.k, s.n, true)
				want, unpinned = append(want, we...), append(unpinned, ue...)
			}
			at, bt := FromSlice(a, bs, s.m, s.k), FromSlice(b, bs, s.k, s.n)
			name := fmt.Sprintf("BatchMatMul %v", s)
			got := BatchMatMul(at, bt).Data()
			requireBitIdentical(t, name, got, want, unpinned)
			for e, ce := range clean {
				requireFinite(t, name, got[e*s.m*s.n:], ce, s.n)
			}
		}
	})
}
