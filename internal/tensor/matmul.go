package tensor

import (
	"fmt"

	"reffil/internal/parallel"
)

// minChunkOps is the scalar-operation budget below which a matmul chunk is
// not worth a goroutine: kernels fall back to the calling goroutine for
// anything smaller, so the tiny matmuls that dominate mini-scale training do
// not pay fan-out overhead.
const minChunkOps = parallel.DefaultChunkOps

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
	MatMulInto(out, a, b)
	return out
}

// MatMulInto adds a·b into out, which must be (m,n): pass it zeroed for the
// plain product. It is MatMul for a caller that already owns the result's
// storage (Conv2D multiplies straight into its output's image slice).
func MatMulInto(out, a, b *Tensor) {
	if a.NDim() != 2 || b.NDim() != 2 || a.shape[1] != b.shape[0] || len(out.data) != a.shape[0]*b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulInto shapes %v x %v -> %v", a.shape, b.shape, out.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	parallel.For(m, parallel.GrainForCost(2*k*n, minChunkOps), func(lo, hi int) {
		matmulRows(out.data, a.data, b.data, lo, hi, k, n)
	})
}

// matmulRows computes rows [lo,hi) of C = A(m,k) * B(k,n) into c, which must
// be zeroed. The loop order (i,p,j) streams B rows sequentially, which is
// the cache friendly order for row-major storage. Each output row depends
// only on its own A row and all of B, so disjoint row ranges are safe to
// compute concurrently and the per-element accumulation order is identical
// at any chunking.
func matmulRows(c, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			//fedvet:ignore floatbits exact zero-skip: the guard is a pure function of the operand bits, so skipping zero contributions is deterministic
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j := range bp {
				ci[j] += av * bp[j]
			}
		}
	}
}

// MatMulT1 computes aᵀ·b for a (k,m) and b (k,n) -> (m,n) without
// materializing the transpose. Output rows are partitioned across workers;
// the shared-dimension loop stays outermost so A and B rows stream
// sequentially, and each element accumulates over ascending p exactly as
// the serial kernel does.
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
	parallel.For(m, parallel.GrainForCost(2*k*n, minChunkOps), func(lo, hi int) {
		for p := 0; p < k; p++ {
			ap := a.data[p*m : (p+1)*m]
			bp := b.data[p*n : (p+1)*n]
			for i := lo; i < hi; i++ {
				av := ap[i]
				//fedvet:ignore floatbits exact zero-skip: the guard is a pure function of the operand bits, so skipping zero contributions is deterministic
				if av == 0 {
					continue
				}
				ci := out.data[i*n : (i+1)*n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	})
	return out
}

// MatMulT2 computes a·bᵀ for a (m,k) and b (n,k) -> (m,n) without
// materializing the transpose: each element is one uninterrupted dot
// product over p.
func MatMulT2(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulT2 needs 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT2 inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := ArenaOf(a, b).Scratch(m, n) // every element is assigned below
	parallel.For(m, parallel.GrainForCost(2*k*n, minChunkOps), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.data[i*k : (i+1)*k]
			ci := out.data[i*n : (i+1)*n]
			for j := range ci {
				bj := b.data[j*k : (j+1)*k]
				s := 0.0
				for p := range ai {
					s += ai[p] * bj[p]
				}
				ci[j] = s
			}
		}
	})
	return out
}

// BatchMatMul multiplies two 3-D tensors batch-wise:
// (B,m,k) x (B,k,n) -> (B,m,n). Batch elements are independent, so the
// batch axis is the parallel axis and each element runs the serial row
// kernel.
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
	parallel.For(bs, parallel.GrainForCost(2*m*k*n, minChunkOps), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			matmulRows(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], 0, m, k, n)
		}
	})
	return out
}
