package autograd

import "reffil/internal/tensor"

// Add returns a + b with numpy broadcasting. Its backward adds its gradient
// into b first, so that a, when it was not broadcast, can then take the
// gradient over (see passOn).
func Add(a, b *Value) *Value {
	return newNode(tensor.Add(a.T, b.T), "add", addBackward, a, b)
}

func addBackward(n *Value) {
	a, b := n.parents[0], n.parents[1]
	if b.requiresGrad {
		accumulateSum(b, n.Grad)
	}
	if a.requiresGrad {
		if n.Grad.SameShape(a.T) {
			passOn(n, a)
		} else {
			accumulateSum(a, n.Grad)
		}
	}
}

// Mul returns the elementwise product with broadcasting.
func Mul(a, b *Value) *Value {
	return newNode(tensor.Mul(a.T, b.T), "mul", mulBackward, a, b)
}

func mulBackward(n *Value) {
	a, b := n.parents[0], n.parents[1]
	if a.requiresGrad {
		accumulateTemp(a, reduceTemp(tensor.Mul(n.Grad, b.T), a.T))
	}
	if b.requiresGrad {
		accumulateTemp(b, reduceTemp(tensor.Mul(n.Grad, a.T), b.T))
	}
}

// Scale returns alpha * a.
func Scale(a *Value, alpha float64) *Value {
	node := newNode(tensor.Scale(a.T, alpha), "scale", scaleBackward, a)
	node.f = alpha
	return node
}

func scaleBackward(n *Value) {
	accumulateTemp(n.parents[0], tensor.Scale(n.Grad, n.f))
}

// AddScalar returns a + c.
func AddScalar(a *Value, c float64) *Value {
	return newNode(tensor.AddScalar(a.T, c), "addScalar", passOnBackward, a)
}

// passOnBackward passes the gradient on to the one operand as it is: the
// backward of ops whose output moves with their input element for element.
func passOnBackward(n *Value) { passOn(n, n.parents[0]) }

// Neg returns -a.
func Neg(a *Value) *Value { return Scale(a, -1) }

// ReLU returns max(0, a) elementwise.
func ReLU(a *Value) *Value {
	return newNode(tensor.ReLU(a.T), "relu", reluBackward, a)
}

func reluBackward(n *Value) {
	a := n.parents[0]
	g := n.T.Arena().ScratchLike(a.T) // PositiveMask writes every element
	tensor.PositiveMask(g.Data(), n.Grad.Data(), a.T.Data())
	accumulateTemp(a, g)
}

// Sum reduces all elements to a scalar.
func Sum(a *Value) *Value {
	return newNode(a.T.Arena().Scalar(a.T.Sum()), "sum", sumBackward, a)
}

func sumBackward(n *Value) {
	a := n.parents[0]
	g := n.T.Arena().ScratchLike(a.T)
	g.Fill(n.Grad.Item())
	accumulateTemp(a, g)
}

// Mean reduces all elements to their scalar mean.
func Mean(a *Value) *Value {
	return newNode(a.T.Arena().Scalar(a.T.Sum()/float64(a.T.Size())), "mean", meanBackward, a)
}

func meanBackward(n *Value) {
	a := n.parents[0]
	g := n.T.Arena().ScratchLike(a.T)
	g.Fill(n.Grad.Item() / float64(a.T.Size()))
	accumulateTemp(a, g)
}

// SumAxis sums along an axis, dropping it.
func SumAxis(a *Value, axis int) *Value {
	node := newNode(tensor.SumAxis(a.T, axis, false), "sumAxis", sumAxisBackward, a)
	node.ints[0] = axis
	return node
}

func sumAxisBackward(n *Value) {
	a := n.parents[0]
	var dims [8]int // a's shape with axis kept as 1, gathered on the stack
	shape := dims[:0]
	for i := 0; i < a.T.NDim(); i++ {
		shape = append(shape, a.T.Dim(i))
	}
	shape[n.ints[0]] = 1
	keep := n.Grad.Reshape(shape...)
	// Broadcast the kept-dim gradient back across the reduced axis.
	ones := n.T.Arena().ScratchLike(a.T)
	ones.Fill(1)
	accumulateTemp(a, tensor.Mul(keep, ones))
	ones.Release()
}

// MeanAxis averages along an axis, dropping it.
func MeanAxis(a *Value, axis int) *Value {
	s := SumAxis(a, axis)
	return Scale(s, 1/float64(a.T.Dim(axis)))
}
