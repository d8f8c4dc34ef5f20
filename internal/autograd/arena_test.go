package autograd

import (
	"testing"

	"reffil/internal/tensor"
)

func TestReshapeIsAView(t *testing.T) {
	x := Param(tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3))
	y := Reshape(x, 3, 2)
	if &y.T.Data()[0] != &x.T.Data()[0] {
		t.Fatal("Reshape must share its operand's elements")
	}
	if err := Backward(Sum(Mul(y, y))); err != nil {
		t.Fatal(err)
	}
	if want := tensor.FromSlice([]float64{2, 4, 6, 8, 10, 12}, 2, 3); !x.Grad.EqualBits(want) {
		t.Fatalf("grad through the view = %v, want %v", x.Grad, want)
	}
}

func TestBackwardConsumesInteriorGrads(t *testing.T) {
	x := Param(tensor.FromSlice([]float64{1, 2}, 2))
	mid := Scale(x, 3)
	if err := Backward(Sum(mid)); err != nil {
		t.Fatal(err)
	}
	if mid.Grad != nil {
		t.Fatal("an interior node must not keep its Grad after Backward")
	}
	if x.Grad == nil || x.Grad.At(0) != 3 {
		t.Fatalf("leaf grad = %v, want 3s", x.Grad)
	}
	// The visit marks are cleared: the same leaf backpropagates again.
	if err := Backward(Sum(Scale(x, 2))); err != nil {
		t.Fatal(err)
	}
	if x.Grad.At(0) != 5 {
		t.Fatalf("accumulated leaf grad = %v, want 5s", x.Grad)
	}
}
