package autograd

import (
	"math/rand"
	"runtime"
	"testing"

	"reffil/internal/tensor"
)

// warmAllocs runs step on an arena once to warm it, then reports the heap
// allocations of one more step plus the Reset after it.
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

// mallocs returns the heap allocations f makes, by MemStats.Mallocs.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestBackwardHandOffsAllocateNothing: on a warm arena, the backward of a
// tape that passes its gradient through Add onto an interior Reshape, and
// from there onto the interior node it views, allocates nothing — each
// gradient changes hands and is re-shaped in place, where adding it into
// zeros through a re-shaped view allocated the view and its shape. And
// tensor.Reshape of a heap tensor allocates the new header and its
// dimensions, 2 objects, and of an arena tensor nothing, whether its caller
// passes its dimensions as arguments or as a slice.
func TestBackwardHandOffsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(13))
	x := tensor.RandN(rng, 1, 3, 4, 5)
	w, b := Param(tensor.RandN(rng, 1, 3, 4, 5)), Param(tensor.RandN(rng, 1, 6, 10))
	var ar tensor.Arena
	var backward uint64
	for i := 0; i < 3; i++ { // the first pass warms the arena and the leaf Grads
		h := Mul(Constant(ar.Wrap(x)), w)      // interior (3,4,5)
		loss := Sum(Add(Reshape(h, 6, 10), b)) // Add's a is an interior Reshape
		order := topoSort(loss)
		n := mallocs(func() {
			loss.EnsureGrad().Fill(1)
			propagate(order)
		})
		if i > 0 {
			backward += n
		}
		ar.Reset()
	}
	if backward != 0 {
		t.Errorf("warm backward of Mul → Reshape → Add → Sum: %v allocations per step, want 0", float64(backward)/2)
	}

	y, wrapped := tensor.New(3, 4), ar.Wrap(tensor.New(3, 4))
	dims := []int{2, 6}
	for name, reshape := range map[string]func(y *tensor.Tensor){
		"arguments": func(y *tensor.Tensor) { reshaped = y.Reshape(6, 2) },
		"slice":     func(y *tensor.Tensor) { reshaped = y.Reshape(dims...) },
		"inferred":  func(y *tensor.Tensor) { reshaped = y.Reshape(-1, 3) },
	} {
		if got := testing.AllocsPerRun(100, func() { reshape(y) }); got != 2 {
			t.Errorf("tensor.Reshape of a heap tensor with %s: %v allocations, want 2 (header and dimensions)", name, got)
		}
		// The header is the arena's: the first, uncounted run draws it, and
		// every Reset hands it back for the next.
		if got := testing.AllocsPerRun(100, func() { reshape(wrapped); ar.Reset() }); got != 0 {
			t.Errorf("tensor.Reshape of an arena tensor with %s: %v allocations, want 0", name, got)
		}
	}
}

// reshaped keeps Reshape's result alive, so the compiler cannot drop it.
var reshaped *tensor.Tensor

// TestKernelsAllocateNothingWhenWarm: on a warm arena, at the default
// GOMAXPROCS, the four matmul kernels and tensor.Permute allocate nothing:
// each runs on the goroutine that calls it, and its result comes from the
// arena. (testing.AllocsPerRun would pin GOMAXPROCS to 1, so MemStats
// counts here.)
func TestKernelsAllocateNothingWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(17))
	var ar tensor.Arena
	a, at := ar.Wrap(tensor.RandN(rng, 1, 64, 48)), ar.Wrap(tensor.RandN(rng, 1, 48, 64))
	b, bt := tensor.RandN(rng, 1, 48, 40), tensor.RandN(rng, 1, 40, 48)
	ba, bb := ar.Wrap(tensor.RandN(rng, 1, 8, 32, 24)), tensor.RandN(rng, 1, 8, 24, 16)
	for name, kernel := range map[string]func(){
		"MatMul":      func() { tensor.MatMul(a, b) },
		"MatMulT1":    func() { tensor.MatMulT1(at, b) },
		"MatMulT2":    func() { tensor.MatMulT2(a, bt) },
		"BatchMatMul": func() { tensor.BatchMatMul(ba, bb) },
		"Permute":     func() { tensor.Permute(ba, 2, 0, 1) },
	} {
		kernel() // warms the arena
		ar.Reset()
		if n := mallocs(func() { kernel(); ar.Reset() }); n != 0 {
			t.Errorf("%s on a warm arena: %d allocations, want 0", name, n)
		}
	}
}

// TestTapeOpsAllocateNothing: on a warm arena, at the default GOMAXPROCS,
// a forward and backward through every op of the tape — each the paper
// step runs and the baselines' losses besides — allocates nothing: the
// tape's nodes, their parent lists, what each op saves for its backward,
// the view headers and Backward's sort buffers all come from the arena, and
// no backward is a closure. The count is averaged over many steps, from
// after a collection, because above one P the runtime makes a few objects
// of its own now and then.
func TestTapeOpsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(19))
	var ar tensor.Arena
	const bs, c, hw, o, d, k = 2, 3, 4, 4, 6, 3
	img := ar.Wrap(tensor.RandN(rng, 1, bs, c, hw, hw))
	param := func(shape ...int) *Value { return Param(tensor.RandN(rng, 1, shape...)) }
	convW, convB := param(o, c, 3, 3), param(o)
	bnG, bnB := param(o), param(o)
	stats := &BatchNormStats{Mean: tensor.New(o), Var: tensor.Ones(o), Momentum: 0.1, Eps: 1e-5}
	lnG, lnB := param(o), param(o)
	cls, proj, w, b := param(1, 1, o), param(o, d), param(d, k), param(k)
	keys, table := param(5, d), param(4, d)
	// Constants a step reads, wrapped into the arena once, as a step's
	// batch is: a Wrap outlives every Reset.
	bank, pairs := ar.Wrap(tensor.RandN(rng, 1, 5, d)), ar.Wrap(tensor.RandN(rng, 1, bs, d))
	teacher := ar.Wrap(tensor.RandN(rng, 1, bs, k))
	fisher, anchor := ar.Wrap(tensor.RandN(rng, 1, d, k)), ar.Wrap(tensor.RandN(rng, 1, d, k))
	labels, ids, positives := []int{0, 2}, []int{3, 1}, [][]int{{0, 4}, {}}
	must := func(v *Value, err error) *Value {
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	step := func() {
		h := must(Conv2D(Param(img), convW, convB, 1, 1))     // (2,4,4,4)
		h = ReLU(must(BatchNorm2D(h, bnG, bnB, stats, true))) // (2,4,4,4)
		tok := Reshape(Permute(h, 0, 2, 3, 1), bs, hw*hw, o)  // (2,16,4)
		tok = must(LayerNorm(tok, lnG, lnB, 1e-5))            // (2,16,4)
		seq := Concat(1, BroadcastBatch(cls, tok.T), tok)     // (2,17,4)
		att := Softmax(Scale(BatchMatMul(seq, Permute(seq, 0, 2, 1)), 0.5))
		ctx := Narrow(BatchMatMul(att, seq), 1, 0, 1)  // (2,1,4)
		feat := Linear(Reshape(ctx, bs, o), proj, nil) // (2,6)
		feat = Add(feat, Mul(Embedding(&ar, table, ids), AddScalar(Neg(feat), 1)))
		logits := Linear(feat, w, b) // (2,3)
		losses := []*Value{
			must(SoftmaxCrossEntropy(logits, labels)),
			must(InfoNCE(must(CosineSimToConst(feat, bank)), positives, 0.5)),
			Mean(must(CosineSimPairs(feat, pairs))),
			must(DistillLoss(logits, teacher, 2)),
			must(L2Penalty(w, fisher, anchor)),
			Sum(MeanAxis(Embedding(&ar, keys, ids), 0)),
			Sum(SumAxis(Mul(Reshape(ctx, bs, o), Reshape(ctx, bs, o)), 1)),
		}
		loss := losses[0]
		for _, l := range losses[1:] {
			loss = Add(loss, l)
		}
		if err := Backward(loss); err != nil {
			t.Fatal(err)
		}
		ar.Reset()
	}
	step() // warms the arena, its tape and the parameters' Grads
	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	n := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d allocations per warm step", n)
	if n != 0 {
		t.Errorf("warm forward and backward of every tape op: %d allocations per step, want 0", n)
	}
}
