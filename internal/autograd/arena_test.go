package autograd

import (
	"math/rand"
	"runtime"
	"testing"

	"reffil/internal/tensor"
)

// TestConv2DReleasesColumnsWithoutWeightGrad: with w frozen, Conv2D gives the
// output of the path that keeps columns for backward bit for bit, and its
// arena ends up holding the output plus one image's columns, where the
// keeping path holds every image's.
func TestConv2DReleasesColumnsWithoutWeightGrad(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one image at a time
	const bs, c, hw, o, kk = 5, 3, 8, 4, 3
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandN(rng, 1, bs, c, hw, hw)
	w := Param(tensor.RandN(rng, 1, o, c, kk, kk))
	b := Param(tensor.RandN(rng, 1, o))

	var keeping, releasing tensor.Arena
	want, err := Conv2D(Constant(keeping.Wrap(x)), w, b, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.SetRequiresGrad(false)
	got, err := Conv2D(Constant(releasing.Wrap(x)), w, b, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.T.EqualBits(want.T) {
		t.Fatal("the releasing path's output differs from the keeping path's")
	}
	outBytes, colBytes := 8*got.T.Size(), 8*c*kk*kk*hw*hw
	if n := releasing.Retained(); n > outBytes+colBytes {
		t.Errorf("frozen w: arena holds %d bytes, want at most the output's %d plus one image's columns %d", n, outBytes, colBytes)
	}
	if n := keeping.Retained(); n < outBytes+bs*colBytes {
		t.Errorf("trainable w: arena holds %d bytes, want the output's %d plus %d images' columns %d each", n, outBytes, bs, colBytes)
	}
}

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
