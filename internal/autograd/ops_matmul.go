package autograd

import (
	"reffil/internal/parallel"
	"reffil/internal/tensor"
)

// MatMul multiplies 2-D values: (m,k) x (k,n) -> (m,n).
func MatMul(a, b *Value) *Value {
	out := tensor.MatMul(a.T, b.T)
	node := newNode(out, "matmul", a, b)
	node.back = func() {
		if a.requiresGrad {
			// dA = dC · Bᵀ
			accumulateTemp(a, tensor.MatMulT2(node.Grad, b.T))
		}
		if b.requiresGrad {
			// dB = Aᵀ · dC
			accumulateTemp(b, tensor.MatMulT1(a.T, node.Grad))
		}
	}
	return node
}

// BatchMatMul multiplies 3-D values batch-wise: (B,m,k) x (B,k,n) -> (B,m,n).
func BatchMatMul(a, b *Value) *Value {
	out := tensor.BatchMatMul(a.T, b.T)
	node := newNode(out, "batchMatmul", a, b)
	node.back = func() {
		bs := a.T.Dim(0)
		m, k := a.T.Dim(1), a.T.Dim(2)
		n := b.T.Dim(2)
		grain := parallel.GrainForCost(2*m*k*n, parallel.DefaultChunkOps)
		if a.requiresGrad {
			ga := out.Arena().NewLike(a.T) // each element's block is added into once, from +0
			parallel.For(bs, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					tensor.MatMulT2Into(ga.View(i*m*k, m, k), node.Grad.View(i*m*n, m, n), b.T.View(i*k*n, k, n))
				}
			})
			accumulateTemp(a, ga)
		}
		if b.requiresGrad {
			gb := out.Arena().ScratchLike(b.T)
			parallel.For(bs, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					gi := tensor.MatMulT1(a.T.View(i*m*k, m, k), node.Grad.View(i*m*n, m, n))
					copy(gb.Data()[i*k*n:(i+1)*k*n], gi.Data())
					gi.Release()
				}
			})
			accumulateTemp(b, gb)
		}
	}
	return node
}

// Linear computes x·W + b for x (B,in), W (in,out) and optional bias b (out).
// It is a fused convenience wrapper used by every dense layer.
func Linear(x, w, b *Value) *Value {
	out := MatMul(x, w)
	if b == nil {
		return out
	}
	return Add(out, b)
}
