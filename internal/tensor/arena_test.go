package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func allPlusZero(t *Tensor) bool {
	for _, v := range t.data {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

func sameShape(t *Tensor, shape ...int) bool {
	return t.SameShape(&Tensor{shape: shape})
}

func TestNilArenaIsTheHeap(t *testing.T) {
	var a *Arena
	for name, got := range map[string]*Tensor{
		"New":         a.New(2, 3),
		"Scratch":     a.Scratch(2, 3),
		"NewLike":     a.NewLike(New(2, 3)),
		"ScratchLike": a.ScratchLike(New(2, 3)),
	} {
		if !sameShape(got, 2, 3) || got.Size() != 6 || !allPlusZero(got) || got.Arena() != nil {
			t.Errorf("nil arena %s = %v (arena %p), want what tensor.New(2, 3) gives", name, got, got.Arena())
		}
	}
	if s := a.Scalar(4); s.NDim() != 0 || s.Item() != 4 {
		t.Errorf("nil arena Scalar(4) = %v", s)
	}
	x := New(2)
	if a.Wrap(x) != x {
		t.Error("nil arena Wrap must return its argument")
	}
	a.Reset()
	x.Release()
	if a.Retained() != 0 {
		t.Error("nil arena retains nothing")
	}
}

func TestArenaNewZeroesWhateverTheBufferHeld(t *testing.T) {
	var a Arena
	dirty := a.Scratch(4, 5)
	for i := range dirty.data {
		dirty.data[i] = []float64{math.NaN(), math.Copysign(0, -1), 7, math.Inf(1)}[i%4]
	}
	a.Reset()
	clean := a.New(5, 4)
	if clean != dirty {
		t.Fatal("the second draw of an equal size must reuse the first's tensor")
	}
	if !sameShape(clean, 5, 4) || !allPlusZero(clean) {
		t.Fatalf("reused New(5, 4) = %v, want all +0", clean)
	}
}

func TestArenaResetMakesEveryDrawReusable(t *testing.T) {
	var a Arena
	step := func() map[*Tensor]bool {
		drawn := map[*Tensor]bool{}
		for _, shape := range [][]int{{8, 16}, {8, 16}, {3}, {}, {2, 2, 2}, {8, 16}} {
			drawn[a.Scratch(shape...)] = true
		}
		drawn[a.Scalar(1)] = true
		a.Reset()
		return drawn
	}
	first := step()
	retained := a.Retained()
	if want := 8 * (3*8*16 + 3 + 1 + 8 + 1); retained != want {
		t.Fatalf("retained %d bytes after the first step, want %d", retained, want)
	}
	second := step()
	if a.Retained() != retained {
		t.Fatalf("an identical second step grew the arena from %d to %d bytes", retained, a.Retained())
	}
	if len(second) != len(first) {
		t.Fatalf("second step drew %d distinct tensors, first %d", len(second), len(first))
	}
	for p := range second {
		if !first[p] {
			t.Fatal("second step drew a tensor the first did not hand back")
		}
	}
}

func TestArenaSmallerRequestReusesLargerBuffer(t *testing.T) {
	var a Arena
	full := a.New(8, 100)
	a.Reset()
	retained := a.Retained()
	tail := a.New(3, 100)
	if tail != full || a.Retained() != retained {
		t.Fatal("a (3,100) request must be served by the free (8,100) buffer")
	}
	if !sameShape(tail, 3, 100) || tail.Size() != 300 || len(tail.Data()) != 300 {
		t.Fatalf("reused tensor has shape %v and %d elements, want (3,100) and 300", tail.Shape(), tail.Size())
	}
	// The full size fits again afterwards.
	a.Reset()
	if again := a.Scratch(8, 100); again != full || again.Size() != 800 {
		t.Fatal("the buffer must serve its full capacity again")
	}
}

func TestArenaServesSmallestFreeCapacityThatFits(t *testing.T) {
	var a Arena
	small, large := a.Scratch(10), a.Scratch(100)
	a.Reset()
	retained := a.Retained()
	if got := a.Scratch(5); got != small {
		t.Fatal("a request for 5 must take the capacity-10 buffer, leaving the larger free")
	}
	if got := a.Scratch(50); got != large {
		t.Fatal("a request for 50 must find the capacity-100 buffer still free")
	}
	if a.Retained() != retained {
		t.Fatal("neither draw may allocate")
	}
	if a.Scratch(11); a.Retained() != retained+8*11 {
		t.Fatal("a request nothing free can hold allocates exactly its size")
	}
}

func TestReleaseHandsBackBeforeReset(t *testing.T) {
	var a Arena
	x := a.New(6)
	view, wrapped := x.Reshape(2, 3), a.Wrap(New(6))
	view.Release()    // a view is not owned
	wrapped.Release() // nor is a wrapped heap tensor
	if y := a.New(6); y == x {
		t.Fatal("releasing a view or a wrapped tensor must not free anything")
	}
	x.Release()
	x.Release() // already handed back: nothing happens
	y := a.New(6)
	if y != x {
		t.Fatal("a released tensor must serve the next draw of its size")
	}
	// It is live again exactly once: after Reset two draws get two tensors.
	a.Reset()
	p, q := a.New(6), a.New(6)
	if p == q {
		t.Fatal("a released and redrawn tensor went back to the free list twice")
	}
}

// TestDrawnFromAndReshapeLike: only a live draw is DrawnFrom its arena, and
// only it can be re-shaped in place; the in-place re-shape keeps the
// elements and refuses a change of size.
func TestDrawnFromAndReshapeLike(t *testing.T) {
	var a, b Arena
	x := a.New(2, 3)
	if !x.DrawnFrom(&a) || x.DrawnFrom(&b) || x.DrawnFrom(nil) {
		t.Fatal("a live draw must be DrawnFrom its own arena and no other")
	}
	for name, u := range map[string]*Tensor{"view": x.Reshape(3, 2), "Wrap": a.Wrap(New(6)), "heap": New(6)} {
		if u.DrawnFrom(&a) {
			t.Errorf("a %s tensor counts as a live draw", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReshapeLike on a %s tensor did not panic", name)
				}
			}()
			u.ReshapeLike(New(3, 2))
		}()
	}
	x.Data()[5] = 7
	x.ReshapeLike(New(3, 2))
	if !sameShape(x, 3, 2) || x.At(2, 1) != 7 {
		t.Fatalf("ReshapeLike gave shape %v with last element %v, want [3 2] and 7", x.Shape(), x.At(2, 1))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReshapeLike to another size did not panic")
			}
		}()
		x.ReshapeLike(New(4))
	}()
	x.Release()
	if x.DrawnFrom(&a) {
		t.Error("a released tensor still counts as a live draw")
	}
}

// TestArenaDrawOrderIsFixed: a warm arena serves two identical steps with
// the same buffers in the same order, whatever was released mid-step, and
// does not grow. Each step draws kernel results and temporaries of one
// capacity, and releases a temporary drawn before a buffer that stays live
// to the Reset: the pattern a backward pass makes.
func TestArenaDrawOrderIsFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := RandN(rng, 1, 6, 5), RandN(rng, 1, 5, 7)
	ba, bb := RandN(rng, 1, 4, 6, 5), RandN(rng, 1, 4, 5, 3)
	var ar Arena
	step := func() []*float64 {
		var got []*float64
		draw := func(x *Tensor) *Tensor {
			got = append(got, &x.data[0])
			return x
		}
		x := draw(MatMul(ar.Wrap(a), b))        // (6,7)
		tmp := draw(ar.Scratch(6, 7))           // x's capacity
		keep := draw(ar.New(7, 6))              // and again
		tmp.Release()                           // while keep stays live
		draw(MatMulT1(x, draw(ar.New(6, 7))))   // (7,7)
		draw(MatMulT2(x, keep.Reshape(6, 7)))   // (6,6)
		y := draw(BatchMatMul(ar.Wrap(ba), bb)) // (4,6,3)
		draw(Permute(y, 2, 0, 1)).Release()     // y's capacity, released
		draw(Add(y, draw(ar.Scratch(4, 6, 3)))) // reuses Permute's
		ar.Reset()
		return got
	}
	step() // warms the arena
	warm := ar.Retained()
	first := step()
	for i := 0; i < 3; i++ {
		if got := step(); !slices.Equal(got, first) {
			t.Fatalf("warm step %d drew %v, the first warm step %v", i+2, got, first)
		}
	}
	if ar.Retained() != warm {
		t.Errorf("warm steps grew the arena from %d to %d bytes", warm, ar.Retained())
	}
}

// TestKernelsDrawFromOperandArena computes every allocating kernel once on
// the heap and once from operands wrapped into an arena whose free buffers
// all hold NaN: the results must belong to the arena and agree bit for bit,
// which also proves each Scratch-backed kernel writes every element.
func TestKernelsDrawFromOperandArena(t *testing.T) {
	defer PoisonReclaimed()()
	rng := rand.New(rand.NewSource(7))
	m23, m34, m24 := RandN(rng, 1, 2, 3), RandN(rng, 1, 3, 4), RandN(rng, 1, 2, 4)
	row := RandN(rng, 1, 3)
	b234, b245 := RandN(rng, 1, 2, 3, 4), RandN(rng, 1, 2, 4, 5)

	kernels := map[string]func(w func(*Tensor) *Tensor) *Tensor{
		"Add":          func(w func(*Tensor) *Tensor) *Tensor { return Add(w(m23), m23) },
		"AddBroadcast": func(w func(*Tensor) *Tensor) *Tensor { return Add(m23, w(row)) },
		"Sub":          func(w func(*Tensor) *Tensor) *Tensor { return Sub(w(m23), row) },
		"Mul":          func(w func(*Tensor) *Tensor) *Tensor { return Mul(w(m23), m23) },
		"ReduceTo":     func(w func(*Tensor) *Tensor) *Tensor { return ReduceTo(w(m23), []int{3}) },
		"Scale":        func(w func(*Tensor) *Tensor) *Tensor { return Scale(w(m23), -2) },
		"AddScalar":    func(w func(*Tensor) *Tensor) *Tensor { return AddScalar(w(m23), 0.5) },
		"ReLU":         func(w func(*Tensor) *Tensor) *Tensor { return ReLU(w(m23)) },
		"MatMul":       func(w func(*Tensor) *Tensor) *Tensor { return MatMul(w(m23), m34) },
		"MatMulT1":     func(w func(*Tensor) *Tensor) *Tensor { return MatMulT1(m23, w(m24)) },
		"MatMulT2":     func(w func(*Tensor) *Tensor) *Tensor { return MatMulT2(w(m24), m34) },
		"BatchMatMul":  func(w func(*Tensor) *Tensor) *Tensor { return BatchMatMul(w(b234), b245) },
		"Transpose":    func(w func(*Tensor) *Tensor) *Tensor { return Transpose(w(m23)) },
		"Permute":      func(w func(*Tensor) *Tensor) *Tensor { return Permute(w(b234), 2, 0, 1) },
		"Concat":       func(w func(*Tensor) *Tensor) *Tensor { return Concat(1, m23, w(m24)) },
		"Narrow":       func(w func(*Tensor) *Tensor) *Tensor { return Narrow(w(b234), 2, 1, 3) },
		"Row":          func(w func(*Tensor) *Tensor) *Tensor { return Row(w(m23), 1) },
		"SumAxis":      func(w func(*Tensor) *Tensor) *Tensor { return SumAxis(w(b234), 1, true) },
		"MeanAxis":     func(w func(*Tensor) *Tensor) *Tensor { return MeanAxis(w(b234), 2, false) },
		"MaxAxis":      func(w func(*Tensor) *Tensor) *Tensor { out, _ := MaxAxis(w(b234), 1, false); return out },
		"Softmax":      func(w func(*Tensor) *Tensor) *Tensor { return Softmax(w(m23)) },
		"ReshapeView":  func(w func(*Tensor) *Tensor) *Tensor { return Scale(w(m23).Reshape(3, 2), 1) },
		"View":         func(w func(*Tensor) *Tensor) *Tensor { return Scale(w(b234).View(12, 3, 4), 1) },
	}
	var a Arena
	for i := 0; i < 4; i++ { // buffers large enough for every result
		a.Scratch(64)
	}
	a.Reset() // and now full of NaN
	for name, k := range kernels {
		want := k(func(t *Tensor) *Tensor { return t })
		got := k(a.Wrap)
		if want.Arena() != nil {
			t.Errorf("%s of heap operands is not a heap tensor", name)
		}
		if got.Arena() != &a {
			t.Errorf("%s of a wrapped operand was not drawn from its arena", name)
		}
		if !got.SameShape(want) || !got.EqualBits(want) {
			t.Errorf("%s from a poisoned arena = %v, on the heap %v", name, got, want)
		}
		if c := got.Clone(); c.Arena() != nil || !c.EqualBits(want) {
			t.Errorf("%s: Clone of an arena tensor must be a heap copy", name)
		}
		a.Reset()
	}
}

// TestMatMulIntoAccumulates: MulInto on one element's sub-slice of a zeroed
// batch writes MatMul's product there and nothing outside it.
func TestMatMulIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := RandN(rng, 1, 3, 4), RandN(rng, 1, 4, 5)
	out := New(2, 3, 5)
	MulInto(out.Data()[15:], a.Data(), b.Data(), 3, 4, 5)
	if !allPlusZero(out.View(0, 3, 5)) {
		t.Fatal("MulInto wrote outside its slice")
	}
	if !out.View(15, 3, 5).EqualBits(MatMul(a, b)) {
		t.Fatal("MulInto into zeroed storage must equal MatMul")
	}
}
