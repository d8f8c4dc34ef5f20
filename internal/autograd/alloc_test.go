package autograd

import (
	"math/rand"
	"testing"

	"reffil/internal/tensor"
)

// warmAllocs runs step on an arena once to warm it, then reports the heap
// allocations of one more step plus the Reset after it. testing.AllocsPerRun
// runs at GOMAXPROCS=1, so every parallel.For runs its body inline and the
// count is exact.
func warmAllocs(step func(ar *tensor.Arena)) float64 {
	var ar tensor.Arena
	return testing.AllocsPerRun(5, func() {
		step(&ar)
		ar.Reset()
	})
}

// TestBatchLoopsAllocatePerBatch: on a warm arena the forward and backward
// of Conv2D and of BatchMatMul allocate the same count at batch 2 as at
// batch 16 — per call, never per image or batch element — and Tensor.At and
// Set allocate nothing.
func TestBatchLoopsAllocatePerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(11))
	const c, hw, o, kk = 3, 6, 4, 3
	w, bias := Param(tensor.RandN(rng, 1, o, c, kk, kk)), Param(tensor.RandN(rng, 1, o))
	conv := func(bs int) func(*tensor.Arena) {
		x := tensor.RandN(rng, 1, bs, c, hw, hw)
		return func(ar *tensor.Arena) {
			y, err := Conv2D(Param(ar.Wrap(x)), w, bias, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := Backward(Sum(y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const m, k, n = 5, 7, 6
	bmm := func(bs int) func(*tensor.Arena) {
		a, b := tensor.RandN(rng, 1, bs, m, k), tensor.RandN(rng, 1, bs, k, n)
		return func(ar *tensor.Arena) {
			if err := Backward(Sum(BatchMatMul(Param(ar.Wrap(a)), Param(ar.Wrap(b))))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, op := range map[string]func(bs int) func(*tensor.Arena){"Conv2D": conv, "BatchMatMul": bmm} {
		small, large := warmAllocs(op(2)), warmAllocs(op(16))
		if small != large {
			t.Errorf("%s forward+backward: %v allocations at batch 2, %v at batch 16; want the same count", name, small, large)
		}
	}

	x := tensor.New(3, 4)
	if got := testing.AllocsPerRun(100, func() { x.Set(x.At(2, 3)+1, 1, 2) }); got != 0 {
		t.Errorf("Tensor.At and Set: %v allocations per call, want 0", got)
	}
}
