package tensor

import "fmt"

// Every kernel here runs on the goroutine that calls it. Parallelism lives
// one level up, where clients train side by side (fl.LocalRunner's pool),
// so a kernel never spawns a goroutine or allocates beyond its result.

// MatMul multiplies two 2-D tensors: (m,k) x (k,n) -> (m,n).
func MatMul(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := ArenaOf(a, b).New(m, n)
	matmulRows(out.data, a.data, b.data, m, k, n, k, 1)
	return out
}

// MulInto, MulT1Into and MulT2Into are the slice-level entries of the three
// products, for a caller that holds its operands as sub-slices of larger
// storage (a batch element, an image's slice of a conv output): no tensor
// header is built and nothing is allocated. Each adds its product into c, an
// (m,n) row-major matrix — pass c zeroed for the plain product — and runs
// every row on the calling goroutine, as every kernel here does. Each panics unless the slice lengths match (m,k,n).

// MulInto adds a·b into c for a (m,k) and b (k,n): MatMul's chains, each
// starting at c's element.
func MulInto(c, a, b []float64, m, k, n int) {
	checkMul("MulInto", c, a, b, m, k, n)
	matmulRows(c, a, b, m, k, n, k, 1)
}

// MulT1Into adds aᵀ·b into c for a (k,m) and b (k,n): MatMulT1's chains,
// each starting at c's element.
func MulT1Into(c, a, b []float64, m, k, n int) {
	checkMul("MulT1Into", c, a, b, m, k, n)
	matmulRows(c, a, b, m, k, n, 1, m)
}

// MulT2Into adds a·bᵀ into c for a (m,k) and b (n,k): element (i,j) becomes
// c(i,j) + MatMulT2's dot product, with c's value as the first operand of
// that one add, as AddInPlace has it.
func MulT2Into(c, a, b []float64, m, k, n int) {
	checkMul("MulT2Into", c, a, b, m, k, n)
	matmulT2Rows(c, a, b, m, k, n)
}

func checkMul(op string, c, a, b []float64, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || len(a) != m*k || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: %s of %d·%d elements -> %d does not fit (m,k,n) = (%d,%d,%d)", op, len(a), len(b), len(c), m, k, n))
	}
}

// matmulRows (MatMul, BatchMatMul, MatMulT1, MulInto, MulT1Into) and
// matmulT2Rows (MatMulT2, MulT2Into) share one loop nest: a register tile
// of 2 output rows × 4 output columns held in locals across the whole
// shared dimension p. The tile's 8 sums are independent chains, so they
// overlap instead of each waiting on the last add, and an output is loaded
// and stored once rather than once per p. An odd last row runs a 1×4 tile
// and the n%4 columns left over run one element at a time, each the same
// chain. Only the loop nest around the chains is chosen for speed: every
// output element still sees the same operations in the same order
// (ascending p), so results are bit-identical at any tile edge.
//
// On amd64 hosts with AVX (useAVX) the full 2×4 tiles run in assembly
// instead (matmul_amd64.s): one call per pair of rows covers every full
// 4-column block, two blocks at a time while it can, in YMM registers. It
// keeps every chain: a separately rounded multiply then an add per p, and
// the same zero test as nonzero, so it is bit-identical to the Go tiles it
// replaces. The odd-row tile and the n%4 columns stay in Go.

// nonzero is the zero-skip test of MatMul and MatMulT1: a product whose A
// operand is ±0 is not added, which also keeps an Inf or NaN in B under a
// zero in A out of the sum.
func nonzero(v float64) bool {
	//fedvet:ignore floatbits exact zero-skip: the guard is a pure function of the operand bits, so skipping zero contributions is deterministic
	return v != 0
}

// matmulRows adds A·B into c, an (m,n) row-major matrix. B is (k,n)
// row-major; A's element (i,p) is a[i*ri+p*rp], so ri=k, rp=1 reads a
// row-major (m,k) A and ri=1, rp=m reads the (k,m) A of MatMulT1. Element
// (i,j) is the chain c(i,j) += A(i,p)·B(p,j) over ascending p, skipping each
// p where A(i,p) is zero.
func matmulRows(c, a, b []float64, m, k, n, ri, rp int) {
	tiled := 0 // the AVX tiles cover rows [0,tiled) but their n%4 columns
	if useAVX && k > 0 && n >= 4 && m >= 2 {
		// The AVX tiles read through raw pointers: touch each operand's
		// furthest element once, so short slices panic as the Go tiles would.
		_, _, _ = c[m*n-1], a[(m-1)*ri+(k-1)*rp], b[k*n-1]
		for ; tiled+1 < m; tiled += 2 {
			rowsPairAVX(&c[tiled*n], &a[tiled*ri], &b[0], k, n, ri, rp)
		}
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		i := tiled
		for ; i+1 < m; i += 2 {
			c0, c1 := c[i*n+j:i*n+j+4], c[(i+1)*n+j:(i+1)*n+j+4]
			c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
			c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
			ia, ib := i*ri, j
			for end := ia + k*rp; ia != end; ia += rp {
				bp := b[ib : ib+4 : ib+4]
				if a0 := a[ia]; nonzero(a0) {
					c00 += a0 * bp[0]
					c01 += a0 * bp[1]
					c02 += a0 * bp[2]
					c03 += a0 * bp[3]
				}
				if a1 := a[ia+ri]; nonzero(a1) {
					c10 += a1 * bp[0]
					c11 += a1 * bp[1]
					c12 += a1 * bp[2]
					c13 += a1 * bp[3]
				}
				ib += n
			}
			c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
			c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
		}
		if i < m {
			ci := c[i*n+j : i*n+j+4]
			c0, c1, c2, c3 := ci[0], ci[1], ci[2], ci[3]
			ia, ib := i*ri, j
			for end := ia + k*rp; ia != end; ia += rp {
				if av := a[ia]; nonzero(av) {
					bp := b[ib : ib+4 : ib+4]
					c0 += av * bp[0]
					c1 += av * bp[1]
					c2 += av * bp[2]
					c3 += av * bp[3]
				}
				ib += n
			}
			ci[0], ci[1], ci[2], ci[3] = c0, c1, c2, c3
		}
	}
	for ; j < n; j++ {
		for i := 0; i < m; i++ {
			s := c[i*n+j]
			ia, ib := i*ri, j
			for end := ia + k*rp; ia != end; ia += rp {
				if av := a[ia]; nonzero(av) {
					s += av * b[ib]
				}
				ib += n
			}
			c[i*n+j] = s
		}
	}
}

// MatMulT1 computes aᵀ·b for a (k,m) and b (k,n) -> (m,n) without
// materializing the transpose: matmulRows reads A down its columns.
func MatMulT1(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulT1 needs 2-D operands, got %v and %v", a.shape, b.shape))
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT1 inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := ArenaOf(a, b).New(m, n)
	matmulRows(out.data, a.data, b.data, m, k, n, 1, m)
	return out
}

// MatMulT2 computes a·bᵀ for a (m,k) and b (n,k) -> (m,n) without
// materializing the transpose. Element (i,j) is the dot product of row i of
// a and row j of b: a sum that starts at 0 and adds every product over
// ascending p, with no zero-skip. It is MulT2Into a zeroed output: a chain
// that starts at +0 is never −0, so +0 plus the chain has the chain's bits.
func MatMulT2(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT2 shapes %v x %vᵀ", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := ArenaOf(a, b).New(m, n)
	matmulT2Rows(out.data, a.data, b.data, m, k, n)
	return out
}

// matmulT2Rows adds a·bᵀ into c (m,n) for a (m,k) and b (n,k), tiled like
// matmulRows. Each dot product is a chain of its own that starts at 0, added
// into c once at the end as c + chain. Both operands are read along their
// rows, so every chain streams contiguous memory.
func matmulT2Rows(c, a, b []float64, m, k, n int) {
	tiled := 0
	if useAVX && k > 0 && n >= 4 && m >= 2 {
		_, _, _ = c[m*n-1], a[m*k-1], b[n*k-1] // as in matmulRows
		for ; tiled+1 < m; tiled += 2 {
			t2PairAVX(&c[tiled*n], &a[tiled*k], &b[0], k, n)
		}
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[j*k : (j+1)*k]
		b1 := b[(j+1)*k : (j+2)*k]
		b2 := b[(j+2)*k : (j+3)*k]
		b3 := b[(j+3)*k : (j+4)*k]
		i := tiled
		for ; i+1 < m; i += 2 {
			a0 := a[i*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for p, x0 := range a0 {
				x1 := a1[p]
				y0, y1, y2, y3 := b0[p], b1[p], b2[p], b3[p]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s03 += x0 * y3
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
				s13 += x1 * y3
			}
			c0, c1 := c[i*n+j:i*n+j+4], c[(i+1)*n+j:(i+1)*n+j+4]
			c0[0], c0[1], c0[2], c0[3] = c0[0]+s00, c0[1]+s01, c0[2]+s02, c0[3]+s03
			c1[0], c1[1], c1[2], c1[3] = c1[0]+s10, c1[1]+s11, c1[2]+s12, c1[3]+s13
		}
		if i < m {
			ai := a[i*k : (i+1)*k]
			var s0, s1, s2, s3 float64
			for p, x := range ai {
				s0 += x * b0[p]
				s1 += x * b1[p]
				s2 += x * b2[p]
				s3 += x * b3[p]
			}
			ci := c[i*n+j : i*n+j+4]
			ci[0], ci[1], ci[2], ci[3] = ci[0]+s0, ci[1]+s1, ci[2]+s2, ci[3]+s3
		}
	}
	for ; j < n; j++ {
		bj := b[j*k : (j+1)*k]
		for i := 0; i < m; i++ {
			s := 0.0
			for p, x := range a[i*k : (i+1)*k] {
				s += x * bj[p]
			}
			c[i*n+j] += s
		}
	}
}

// BatchMatMul multiplies two 3-D tensors batch-wise:
// (B,m,k) x (B,k,n) -> (B,m,n): each batch element runs matmulRows over all
// of its rows.
func BatchMatMul(a, b *Tensor) *Tensor {
	if a.NDim() != 3 || b.NDim() != 3 {
		panic(fmt.Sprintf("tensor: BatchMatMul needs 3-D operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: BatchMatMul batch mismatch %v x %v", a.shape, b.shape))
	}
	bs, m, k := a.shape[0], a.shape[1], a.shape[2]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: BatchMatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	n := b.shape[2]
	out := ArenaOf(a, b).New(bs, m, n)
	for i := 0; i < bs; i++ {
		matmulRows(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], m, k, n, k, 1)
	}
	return out
}
