package autograd

import "reffil/internal/tensor"

// MatMul multiplies 2-D values: (m,k) x (k,n) -> (m,n).
func MatMul(a, b *Value) *Value {
	return newNode(tensor.MatMul(a.T, b.T), "matmul", matMulBackward, a, b)
}

func matMulBackward(n *Value) {
	a, b := n.parents[0], n.parents[1]
	if a.requiresGrad {
		// dA = dC · Bᵀ
		accumulateTemp(a, tensor.MatMulT2(n.Grad, b.T))
	}
	if b.requiresGrad {
		// dB = Aᵀ · dC
		accumulateTemp(b, tensor.MatMulT1(a.T, n.Grad))
	}
}

// BatchMatMul multiplies 3-D values batch-wise: (B,m,k) x (B,k,n) -> (B,m,n).
// Its backward runs the slice-level products on each element's sub-slices,
// so it allocates per batch, not per element.
func BatchMatMul(a, b *Value) *Value {
	return newNode(tensor.BatchMatMul(a.T, b.T), "batchMatmul", batchMatMulBackward, a, b)
}

func batchMatMulBackward(node *Value) {
	a, b := node.parents[0], node.parents[1]
	bs := a.T.Dim(0)
	m, k := a.T.Dim(1), a.T.Dim(2)
	n := b.T.Dim(2)
	ad, bd, gd := a.T.Data(), b.T.Data(), node.Grad.Data()
	ar := node.T.Arena()
	// Each element's block of a gradient is added into once, from +0.
	if a.requiresGrad {
		// dA = dC · Bᵀ
		ga := ar.NewLike(a.T)
		gad := ga.Data()
		for i := 0; i < bs; i++ {
			tensor.MulT2Into(gad[i*m*k:(i+1)*m*k], gd[i*m*n:(i+1)*m*n], bd[i*k*n:(i+1)*k*n], m, n, k)
		}
		accumulateTemp(a, ga)
	}
	if b.requiresGrad {
		// dB = Aᵀ · dC
		gb := ar.NewLike(b.T)
		gbd := gb.Data()
		for i := 0; i < bs; i++ {
			tensor.MulT1Into(gbd[i*k*n:(i+1)*k*n], ad[i*m*k:(i+1)*m*k], gd[i*m*n:(i+1)*m*n], k, m, n)
		}
		accumulateTemp(b, gb)
	}
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
