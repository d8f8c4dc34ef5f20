package autograd

import (
	"math/rand"
	"testing"

	"reffil/internal/tensor"
)

// TestConv2DReleasesColumnsWithoutWeightGrad: with w frozen, Conv2D gives the
// output of the path that keeps columns for backward bit for bit, and its
// arena ends up holding the output plus one image's columns, where the
// keeping path holds every image's.
func TestConv2DReleasesColumnsWithoutWeightGrad(t *testing.T) {
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

// TestBroadcastBatchDrawsFromTheBatchArena: a heap parameter tiled over an
// arena batch is tiled into the batch's arena, its gradient summed there
// too, and the parameter's Grad is the heap one of a heap batch, bit for bit.
func TestBroadcastBatchDrawsFromTheBatchArena(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := Param(tensor.RandN(rng, 1, 1, 2, 3))
	x := tensor.RandN(rng, 1, 4, 2, 3)
	var ar tensor.Arena
	tiled := BroadcastBatch(v, ar.Wrap(x))
	if tiled.T.Arena() != &ar || tiled.T.Dim(0) != 4 {
		t.Fatalf("tiled %v into arena %p, want 4 tiles in the batch's", tiled.T.Shape(), tiled.T.Arena())
	}
	if err := Backward(Sum(Mul(tiled, Constant(ar.Wrap(x))))); err != nil {
		t.Fatal(err)
	}
	if v.Grad.Arena() != nil {
		t.Fatal("the parameter's gradient was drawn from the batch's arena")
	}
	got := v.Grad.Clone()
	ar.Reset()
	v.Grad = nil
	if err := Backward(Sum(Mul(BroadcastBatch(v, x), Constant(x)))); err != nil {
		t.Fatal(err)
	}
	if !got.EqualBits(v.Grad) {
		t.Fatal("the parameter's gradient through the arena tiles differs from the heap tiles'")
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

// TestHandOffTakesOnlyLiveDraws: handOff gives a buffer to an interior node
// with no Grad when the buffer is a live draw of that node's arena —
// re-shaped in place to the node's shape — and to nothing else: not to a
// leaf, not to a node that already has a Grad, and never a view, a Wrap, a
// heap tensor, a released draw or another arena's draw.
func TestHandOffTakesOnlyLiveDraws(t *testing.T) {
	var ar, other tensor.Arena
	interior := func() *Value { return Scale(Param(ar.Wrap(tensor.New(2, 3))), 2) }
	draw := func() *tensor.Tensor { return ar.New(6) }

	p, g := interior(), draw()
	if !handOff(p, g) || p.Grad != g {
		t.Fatal("a live draw of its arena was not handed to an interior node without a Grad")
	}
	if !g.SameShape(p.T) {
		t.Fatalf("handed-over buffer has shape %v, want the node's %v", g.Shape(), p.T.Shape())
	}
	if handOff(p, draw()) {
		t.Error("handed a buffer to a node that already has a Grad")
	}
	if handOff(Param(ar.New(2, 3)), draw()) {
		t.Error("handed a buffer to a leaf")
	}
	for name, g := range map[string]*tensor.Tensor{
		"view":          draw().Reshape(2, 3),
		"Wrap":          ar.Wrap(tensor.New(6)),
		"heap":          tensor.New(6),
		"another arena": other.New(6),
	} {
		if p := interior(); handOff(p, g) || p.Grad != nil {
			t.Errorf("handed a %s tensor over", name)
		}
	}
	p = interior()
	released := draw()
	released.Release() // the next draw may serve it again: none comes
	if handOff(p, released) || p.Grad != nil {
		t.Error("handed a released tensor over")
	}
	heapNode := Scale(Param(tensor.New(2, 3)), 2)
	if handOff(heapNode, tensor.New(2, 3)) {
		t.Error("handed a buffer over on a heap tape")
	}
}
