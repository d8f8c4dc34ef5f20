package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// smokeRun trains one method at smoke scale on PACS through the engine's
// default LocalRunner — step arenas, evaluation arena and all — and returns
// the accuracy matrix's lower triangle and the final global state.
func smokeRun(t *testing.T, method string) ([]float64, map[string]*tensor.Tensor) {
	t.Helper()
	const seed = 11
	family, err := experiments.ScaleSmoke.Family("pacs")
	if err != nil {
		t.Fatal(err)
	}
	domains := experiments.OrderA.Domains(family)
	alg, err := experiments.NewMethod(method, experiments.ScaleSmoke.ModelConfig(family.Classes), len(domains), seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(experiments.ScaleSmoke.EngineConfig("pacs", seed), alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	var acc []float64
	for i := 0; i < mat.T; i++ {
		acc = append(acc, mat.A[i][:i+1]...)
	}
	return acc, nn.StateDict(alg.Global())
}

// TestPoisonedArenaLeavesRunsBitIdentical is the lifetime proof of the step
// arena: with every reclaimed buffer overwritten with NaN, whole federated
// runs give the outputs of the unpoisoned runs bit for bit. So nothing is
// read after the Reset or Release that reclaimed it, and nothing drawn as
// Scratch is read before it is written. RefFiL covers the paper path (GPL
// and DPCL against the bank), FedLwF a teacher's forward pass inside the
// loss closure, FedEWC a penalty over parameters alone, and the DualPrompt
// pool the prompt gather.
func TestPoisonedArenaLeavesRunsBitIdentical(t *testing.T) {
	for _, method := range []string{"RefFiL", "FedLwF", "FedEWC", "FedDualPrompt+pool"} {
		t.Run(method, func(t *testing.T) {
			wantAcc, wantState := smokeRun(t, method)
			restore := tensor.PoisonReclaimed()
			gotAcc, gotState := smokeRun(t, method)
			restore()

			if len(gotAcc) != len(wantAcc) {
				t.Fatalf("matrix has %d entries, unpoisoned %d", len(gotAcc), len(wantAcc))
			}
			for i := range wantAcc {
				if math.Float64bits(gotAcc[i]) != math.Float64bits(wantAcc[i]) {
					t.Errorf("accuracy %d: %v under poison, %v without", i, gotAcc[i], wantAcc[i])
				}
			}
			if len(gotState) != len(wantState) {
				t.Fatalf("state has %d entries, unpoisoned %d", len(gotState), len(wantState))
			}
			for name, want := range wantState {
				if got := gotState[name]; got == nil || !got.EqualBits(want) {
					t.Errorf("state %q differs under poison", name)
				}
			}
		})
	}
}

func randParam(rng *rand.Rand, shape ...int) *autograd.Value {
	return autograd.Param(tensor.RandN(rng, 1, shape...))
}

// arenaNet is a small graph through every kind of op the arena changed:
// convolution with im2col columns, batch and layer norm side buffers, a
// Reshape view, broadcast adds, matmuls and a fused loss.
type arenaNet struct {
	w, cb, gamma, beta, lg, lb, fc, fb *autograd.Value
	stats                              *autograd.BatchNormStats
}

func newArenaNet(rng *rand.Rand) *arenaNet {
	return &arenaNet{
		w: randParam(rng, 4, 3, 3, 3), cb: randParam(rng, 4),
		gamma: randParam(rng, 4), beta: randParam(rng, 4),
		lg: randParam(rng, 16), lb: randParam(rng, 16),
		fc: randParam(rng, 16, 5), fb: randParam(rng, 5),
		stats: &autograd.BatchNormStats{Mean: tensor.New(4), Var: tensor.Ones(4), Momentum: 0.1, Eps: 1e-5},
	}
}

func (n *arenaNet) params() []*autograd.Value {
	return []*autograd.Value{n.w, n.cb, n.gamma, n.beta, n.lg, n.lb, n.fc, n.fb}
}

// step runs forward and backward on x, which decides the arena.
func (n *arenaNet) step(t *testing.T, x *tensor.Tensor, labels []int) {
	t.Helper()
	for _, p := range n.params() {
		p.ZeroGrad()
	}
	h, err := autograd.Conv2D(autograd.Constant(x), n.w, n.cb, 2, 1) // (B,4,4,4)
	if err != nil {
		t.Fatal(err)
	}
	if h, err = autograd.BatchNorm2D(h, n.gamma, n.beta, n.stats, true); err != nil {
		t.Fatal(err)
	}
	h = autograd.ReLU(h)
	tok := autograd.Reshape(autograd.Permute(h, 0, 2, 3, 1), x.Dim(0), 4, 16) // (B,4,16)
	if tok, err = autograd.LayerNorm(tok, n.lg, n.lb, 1e-5); err != nil {
		t.Fatal(err)
	}
	attn := autograd.Softmax(autograd.Scale(autograd.BatchMatMul(tok, autograd.Permute(tok, 0, 2, 1)), 0.25))
	pooled := autograd.MeanAxis(autograd.BatchMatMul(attn, tok), 1) // (B,16)
	loss, err := autograd.SoftmaxCrossEntropy(autograd.Linear(pooled, n.fc, n.fb), labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := autograd.Backward(autograd.Add(loss, autograd.Scale(autograd.Sum(autograd.Mul(pooled, pooled)), 0.01))); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonedArenaStepsMatchHeapSteps trains the same net on the heap and from a
// poisoned arena that is reset after every step, over full and tail batches:
// gradients and running statistics agree bit for bit, every parameter's Grad
// stays a heap tensor, and once warm on the largest batch the arena does not
// grow by a byte. Every kernel draws on the goroutine that calls it, so the
// draws come in one order at any GOMAXPROCS. The parallel subtest trains two
// nets side by side, each on its own arena, as the client pool's workers do.
func TestPoisonedArenaStepsMatchHeapSteps(t *testing.T) {
	defer tensor.PoisonReclaimed()()
	batches := []int{6, 6, 6, 2, 5, 6} // the largest first: it warms the arena
	t.Run("parallel", func(t *testing.T) {
		for _, name := range []string{"a", "b"} {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				trainArenaAndHeap(t, batches)
			})
		}
	})
	t.Run("serial", func(t *testing.T) { trainArenaAndHeap(t, batches) })
}

// trainArenaAndHeap runs TestPoisonedArenaStepsMatchHeapSteps's steps and
// checks that no step after the first grows the arena.
func trainArenaAndHeap(t *testing.T, batches []int) {
	heap, pooled := newArenaNet(rand.New(rand.NewSource(3))), newArenaNet(rand.New(rand.NewSource(3)))
	rng := rand.New(rand.NewSource(4))
	var a tensor.Arena
	var warm int
	for step, bs := range batches {
		x := tensor.RandN(rng, 1, bs, 3, 8, 8)
		labels := make([]int, bs)
		for i := range labels {
			labels[i] = rng.Intn(5)
		}
		heap.step(t, x, labels)
		pooled.step(t, a.Wrap(x), labels)
		a.Reset()
		for i, p := range pooled.params() {
			if p.Grad.Arena() != nil || p.T.Arena() != nil {
				t.Fatalf("step %d: parameter %d or its Grad was drawn from the arena", step, i)
			}
			if !p.Grad.EqualBits(heap.params()[i].Grad) {
				t.Errorf("step %d: parameter %d's gradient differs between arena and heap", step, i)
			}
		}
		if !pooled.stats.Mean.EqualBits(heap.stats.Mean) || !pooled.stats.Var.EqualBits(heap.stats.Var) {
			t.Errorf("step %d: running statistics differ between arena and heap", step)
		}
		switch {
		case step == 0:
			warm = a.Retained()
		case a.Retained() != warm:
			t.Errorf("step %d (batch %d) grew the arena from %d to %d bytes", step, bs, warm, a.Retained())
		}
	}
}

// TestReclaimedViewsAndNodesPanic: Reset clears the view headers and tape
// nodes it takes back, so a view or a node held past the Reset that ended
// its step panics on first use, even once the next step has drawn the
// buffer it viewed, instead of reading what that step wrote there. That
// holds for the nodes whose backward reads tensors the op saved on them —
// a LayerNorm's xhat, a Conv2D's columns — whose buffers the next step's
// draws take over.
func TestReclaimedViewsAndNodesPanic(t *testing.T) {
	defer tensor.PoisonReclaimed()()
	var ar tensor.Arena
	x := ar.New(4, 6)
	view, reshaped := x.View(6, 3, 6), x.Reshape(6, 4)
	leaf := autograd.Param(x)
	node := autograd.Sum(autograd.Scale(leaf, 2))
	ln, err := autograd.LayerNorm(autograd.Param(ar.New(4, 6)), autograd.Param(tensor.Ones(6)), autograd.Param(tensor.New(6)), 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := autograd.Conv2D(autograd.Param(ar.New(2, 3, 4, 4)), autograd.Param(tensor.Ones(2, 3, 3, 3)), nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, conv = autograd.Sum(ln), autograd.Sum(conv)
	ar.Reset()
	next := ar.New(4, 6)
	if &next.Data()[0] != &x.Data()[0] {
		t.Fatal("the next step's draw does not reuse the reclaimed buffer")
	}
	next.Fill(1)
	for _, shape := range [][]int{{4, 6}, {4, 6}, {4}, {2, 2, 4, 4}, {2 * 27, 16}} {
		ar.New(shape...).Fill(1) // over the buffers of the saved xhat, invStd and columns, among others
	}
	for name, use := range map[string]func(){
		"View":          func() { _ = view.Data()[0] },
		"Reshape":       func() { _ = reshaped.At(0, 0) },
		"leaf":          func() { _ = leaf.T.Size() },
		"interior node": func() { _ = autograd.Backward(node) },
		"LayerNorm":     func() { _ = autograd.Backward(ln) },
		"Conv2D":        func() { _ = autograd.Backward(conv) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %s used after Reset did not panic", name)
				}
			}()
			use()
		}()
	}
}
