package autograd

import (
	"math"

	"reffil/internal/tensor"
)

// Add returns a + b with numpy broadcasting.
func Add(a, b *Value) *Value {
	out := tensor.Add(a.T, b.T)
	node := newNode(out, "add", nil, a, b)
	node.back = func() {
		if a.requiresGrad {
			accumulate(a, tensor.ReduceTo(node.Grad, a.T.Shape()))
		}
		if b.requiresGrad {
			accumulate(b, tensor.ReduceTo(node.Grad, b.T.Shape()))
		}
	}
	return node
}

// Sub returns a - b with broadcasting.
func Sub(a, b *Value) *Value {
	out := tensor.Sub(a.T, b.T)
	node := newNode(out, "sub", nil, a, b)
	node.back = func() {
		if a.requiresGrad {
			accumulate(a, tensor.ReduceTo(node.Grad, a.T.Shape()))
		}
		if b.requiresGrad {
			g := tensor.ReduceTo(node.Grad, b.T.Shape())
			g.ScaleInPlace(-1)
			accumulate(b, g)
		}
	}
	return node
}

// Mul returns the elementwise product with broadcasting.
func Mul(a, b *Value) *Value {
	out := tensor.Mul(a.T, b.T)
	node := newNode(out, "mul", nil, a, b)
	node.back = func() {
		if a.requiresGrad {
			accumulate(a, tensor.ReduceTo(tensor.Mul(node.Grad, b.T), a.T.Shape()))
		}
		if b.requiresGrad {
			accumulate(b, tensor.ReduceTo(tensor.Mul(node.Grad, a.T), b.T.Shape()))
		}
	}
	return node
}

// Div returns the elementwise quotient with broadcasting.
func Div(a, b *Value) *Value {
	out := tensor.Div(a.T, b.T)
	node := newNode(out, "div", nil, a, b)
	node.back = func() {
		if a.requiresGrad {
			accumulate(a, tensor.ReduceTo(tensor.Div(node.Grad, b.T), a.T.Shape()))
		}
		if b.requiresGrad {
			// d/db (a/b) = -a/b².
			g := tensor.Mul(node.Grad, tensor.Div(out, b.T))
			g.ScaleInPlace(-1)
			accumulate(b, tensor.ReduceTo(g, b.T.Shape()))
		}
	}
	return node
}

// Scale returns alpha * a.
func Scale(a *Value, alpha float64) *Value {
	node := newNode(tensor.Scale(a.T, alpha), "scale", nil, a)
	node.back = func() {
		accumulate(a, tensor.Scale(node.Grad, alpha))
	}
	return node
}

// AddScalar returns a + c.
func AddScalar(a *Value, c float64) *Value {
	node := newNode(tensor.AddScalar(a.T, c), "addScalar", nil, a)
	node.back = func() {
		accumulate(a, node.Grad)
	}
	return node
}

// Neg returns -a.
func Neg(a *Value) *Value { return Scale(a, -1) }

// ReLU returns max(0, a) elementwise.
func ReLU(a *Value) *Value {
	out := tensor.ReLU(a.T)
	node := newNode(out, "relu", nil, a)
	node.back = func() {
		g := tensor.New(a.T.Shape()...)
		ad, gd, od := a.T.Data(), node.Grad.Data(), g.Data()
		for i := range ad {
			if ad[i] > 0 {
				od[i] = gd[i]
			}
		}
		accumulate(a, g)
	}
	return node
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Value) *Value {
	out := tensor.Tanh(a.T)
	node := newNode(out, "tanh", nil, a)
	node.back = func() {
		g := tensor.New(a.T.Shape()...)
		od, gd, dd := out.Data(), node.Grad.Data(), g.Data()
		for i := range od {
			dd[i] = gd[i] * (1 - od[i]*od[i])
		}
		accumulate(a, g)
	}
	return node
}

// Exp returns e^a elementwise.
func Exp(a *Value) *Value {
	out := tensor.Exp(a.T)
	node := newNode(out, "exp", nil, a)
	node.back = func() {
		accumulate(a, tensor.Mul(node.Grad, out))
	}
	return node
}

// Log returns ln(a) elementwise; a must be strictly positive.
func Log(a *Value) *Value {
	out := tensor.Log(a.T)
	node := newNode(out, "log", nil, a)
	node.back = func() {
		accumulate(a, tensor.Div(node.Grad, a.T))
	}
	return node
}

// Sum reduces all elements to a scalar.
func Sum(a *Value) *Value {
	out := tensor.Scalar(a.T.Sum())
	node := newNode(out, "sum", nil, a)
	node.back = func() {
		g := tensor.Full(node.Grad.Item(), a.T.Shape()...)
		accumulate(a, g)
	}
	return node
}

// Mean reduces all elements to their scalar mean.
func Mean(a *Value) *Value {
	n := float64(a.T.Size())
	out := tensor.Scalar(a.T.Sum() / n)
	node := newNode(out, "mean", nil, a)
	node.back = func() {
		g := tensor.Full(node.Grad.Item()/n, a.T.Shape()...)
		accumulate(a, g)
	}
	return node
}

// SumAxis sums along an axis, dropping it.
func SumAxis(a *Value, axis int) *Value {
	out := tensor.SumAxis(a.T, axis, false)
	node := newNode(out, "sumAxis", nil, a)
	node.back = func() {
		shape := a.T.Shape()
		keep := node.Grad.Reshape(keepDimShape(shape, axis)...)
		// Broadcast the kept-dim gradient back across the reduced axis.
		g := tensor.Mul(keep, tensor.Ones(shape...))
		accumulate(a, g)
	}
	return node
}

// MeanAxis averages along an axis, dropping it.
func MeanAxis(a *Value, axis int) *Value {
	s := SumAxis(a, axis)
	return Scale(s, 1/float64(a.T.Dim(axis)))
}

func keepDimShape(shape []int, axis int) []int {
	out := append([]int(nil), shape...)
	out[axis] = 1
	return out
}

// Sqrt returns the elementwise square root; a must be non-negative.
func Sqrt(a *Value) *Value {
	out := tensor.Sqrt(a.T)
	node := newNode(out, "sqrt", nil, a)
	node.back = func() {
		g := tensor.New(a.T.Shape()...)
		od, gd, dd := out.Data(), node.Grad.Data(), g.Data()
		for i := range od {
			dd[i] = gd[i] / (2 * math.Max(od[i], 1e-12))
		}
		accumulate(a, g)
	}
	return node
}
