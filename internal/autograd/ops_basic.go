package autograd

import "reffil/internal/tensor"

// Add returns a + b with numpy broadcasting. Its backward adds its gradient
// into b first, so that a, when it was not broadcast, can then take the
// gradient over (see passOn).
func Add(a, b *Value) *Value {
	out := tensor.Add(a.T, b.T)
	node := newNode(out, "add", a, b)
	node.back = func() {
		if b.requiresGrad {
			accumulateSum(b, node.Grad)
		}
		if a.requiresGrad {
			if node.Grad.SameShape(a.T) {
				passOn(node, a)
			} else {
				accumulateSum(a, node.Grad)
			}
		}
	}
	return node
}

// Mul returns the elementwise product with broadcasting.
func Mul(a, b *Value) *Value {
	out := tensor.Mul(a.T, b.T)
	node := newNode(out, "mul", a, b)
	node.back = func() {
		if a.requiresGrad {
			accumulateTemp(a, reduceTemp(tensor.Mul(node.Grad, b.T), a.T))
		}
		if b.requiresGrad {
			accumulateTemp(b, reduceTemp(tensor.Mul(node.Grad, a.T), b.T))
		}
	}
	return node
}

// Scale returns alpha * a.
func Scale(a *Value, alpha float64) *Value {
	node := newNode(tensor.Scale(a.T, alpha), "scale", a)
	node.back = func() {
		accumulateTemp(a, tensor.Scale(node.Grad, alpha))
	}
	return node
}

// AddScalar returns a + c.
func AddScalar(a *Value, c float64) *Value {
	node := newNode(tensor.AddScalar(a.T, c), "addScalar", a)
	node.back = func() { passOn(node, a) }
	return node
}

// Neg returns -a.
func Neg(a *Value) *Value { return Scale(a, -1) }

// ReLU returns max(0, a) elementwise.
func ReLU(a *Value) *Value {
	out := tensor.ReLU(a.T)
	node := newNode(out, "relu", a)
	node.back = func() {
		g := out.Arena().ScratchLike(a.T) // PositiveMask writes every element
		tensor.PositiveMask(g.Data(), node.Grad.Data(), a.T.Data())
		accumulateTemp(a, g)
	}
	return node
}

// Sum reduces all elements to a scalar.
func Sum(a *Value) *Value {
	out := a.T.Arena().Scalar(a.T.Sum())
	node := newNode(out, "sum", a)
	node.back = func() {
		g := out.Arena().ScratchLike(a.T)
		g.Fill(node.Grad.Item())
		accumulateTemp(a, g)
	}
	return node
}

// Mean reduces all elements to their scalar mean.
func Mean(a *Value) *Value {
	n := float64(a.T.Size())
	out := a.T.Arena().Scalar(a.T.Sum() / n)
	node := newNode(out, "mean", a)
	node.back = func() {
		g := out.Arena().ScratchLike(a.T)
		g.Fill(node.Grad.Item() / n)
		accumulateTemp(a, g)
	}
	return node
}

// SumAxis sums along an axis, dropping it.
func SumAxis(a *Value, axis int) *Value {
	out := tensor.SumAxis(a.T, axis, false)
	node := newNode(out, "sumAxis", a)
	node.back = func() {
		var dims [8]int // a's shape with axis kept as 1, gathered on the stack
		shape := dims[:0]
		for i := 0; i < a.T.NDim(); i++ {
			shape = append(shape, a.T.Dim(i))
		}
		shape[axis] = 1
		keep := node.Grad.Reshape(shape...)
		// Broadcast the kept-dim gradient back across the reduced axis.
		ones := out.Arena().ScratchLike(a.T)
		ones.Fill(1)
		accumulateTemp(a, tensor.Mul(keep, ones))
		ones.Release()
	}
	return node
}

// MeanAxis averages along an axis, dropping it.
func MeanAxis(a *Value, axis int) *Value {
	s := SumAxis(a, axis)
	return Scale(s, 1/float64(a.T.Dim(axis)))
}
