package opt

import (
	"math"
	"math/rand"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

func quadParams(vals ...float64) []nn.Param {
	ps := make([]nn.Param, len(vals))
	for i, v := range vals {
		ps[i] = nn.Param{Name: "p", Value: autograd.Param(tensor.FromSlice([]float64{v}, 1))}
	}
	return ps
}

func TestNewSGDValidation(t *testing.T) {
	tests := []struct {
		name        string
		lr, mom, wd float64
		wantErr     bool
	}{
		{"valid", 0.1, 0.9, 1e-4, false},
		{"zero lr", 0, 0, 0, true},
		{"negative lr", -1, 0, 0, true},
		{"momentum 1", 0.1, 1, 0, true},
		{"negative wd", 0.1, 0, -1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSGD(nil, tt.lr, tt.mom, tt.wd)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSGDMinimizesQuadratic(t *testing.T) {
	// Minimize f(x) = (x-3)² from x=0.
	ps := quadParams(0)
	x := ps[0].Value
	sgd, err := NewSGD(ps, 0.1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sgd.ZeroGrad()
		d := autograd.AddScalar(x, -3)
		loss := autograd.Sum(autograd.Mul(d, d))
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		sgd.Step()
	}
	if got := x.T.At(0); math.Abs(got-3) > 1e-3 {
		t.Fatalf("converged to %v, want 3", got)
	}
}

func TestSGDMomentumAcceleratesConvergence(t *testing.T) {
	run := func(momentum float64) float64 {
		ps := quadParams(0)
		x := ps[0].Value
		sgd, err := NewSGD(ps, 0.02, momentum, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			sgd.ZeroGrad()
			d := autograd.AddScalar(x, -3)
			loss := autograd.Sum(autograd.Mul(d, d))
			if err := autograd.Backward(loss); err != nil {
				t.Fatal(err)
			}
			sgd.Step()
		}
		return math.Abs(x.T.At(0) - 3)
	}
	plain := run(0)
	withMomentum := run(0.9)
	if withMomentum >= plain {
		t.Fatalf("momentum should converge faster on a quadratic: %v vs %v", withMomentum, plain)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	// With zero data gradient, weight decay alone must shrink the weight.
	ps := quadParams(2)
	x := ps[0].Value
	sgd, err := NewSGD(ps, 0.1, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	x.EnsureGrad() // zero gradient present
	before := x.T.At(0)
	sgd.Step()
	if got := x.T.At(0); got >= before {
		t.Fatalf("weight decay did not shrink weight: %v -> %v", before, got)
	}
}

func TestSGDSkipsNilGrad(t *testing.T) {
	ps := quadParams(1)
	sgd, err := NewSGD(ps, 0.1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sgd.Step() // no gradient accumulated
	if got := ps[0].Value.T.At(0); got != 1 {
		t.Fatalf("param changed without gradient: %v", got)
	}
}

func TestClipGradNorm(t *testing.T) {
	ps := quadParams(0, 0)
	ps[0].Value.EnsureGrad().Fill(3)
	ps[1].Value.EnsureGrad().Fill(4)
	norm := ClipGradNorm(ps, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	total := 0.0
	for _, p := range ps {
		n := p.Value.Grad.L2Norm()
		total += n * n
	}
	if math.Abs(math.Sqrt(total)-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", math.Sqrt(total))
	}
}

func TestClipGradNormNoopBelowThreshold(t *testing.T) {
	ps := quadParams(0)
	ps[0].Value.EnsureGrad().Fill(0.5)
	ClipGradNorm(ps, 10)
	if got := ps[0].Value.Grad.At(0); got != 0.5 {
		t.Fatalf("clip modified gradient below threshold: %v", got)
	}
}

func TestSGDTrainsTinyNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := nn.NewLinear("l", rng, 2, 2, true)
	sgd, err := NewSGD(l.Params(), 0.5, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := autograd.Constant(tensor.FromSlice([]float64{1, 0, 0, 1, 1, 1, 0, 0}, 4, 2))
	labels := []int{0, 1, 1, 0}
	var first, last float64
	for i := 0; i < 60; i++ {
		sgd.ZeroGrad()
		loss, err := autograd.SoftmaxCrossEntropy(l.Forward(x), labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		sgd.Step()
		if i == 0 {
			first = loss.T.Item()
		}
		last = loss.T.Item()
	}
	if last >= first {
		t.Fatalf("training loss did not decrease: %v -> %v", first, last)
	}
}

// threePassStep is the optimiser step as three tensor passes, the form Step
// fused: decay into a copy of the gradient, fold that into the velocity,
// apply the velocity. It is the Float64bits reference for Step.
func threePassStep(w, g, vel *tensor.Tensor, lr, momentum, weightDecay float64) {
	if weightDecay > 0 {
		g = g.Clone()
		g.AddScaledInPlace(weightDecay, w)
	}
	if momentum > 0 {
		vel.ScaleInPlace(momentum)
		vel.AddInPlace(g)
		g = vel
	}
	w.AddScaledInPlace(-lr, g)
}

func TestStepMatchesThreePassReference(t *testing.T) {
	const lr, steps = 0.05, 4
	for _, hp := range []struct{ momentum, weightDecay float64 }{{0, 0}, {0.9, 0}, {0, 1e-4}, {0.9, 1e-4}} {
		rng := rand.New(rand.NewSource(9))
		p := nn.Param{Name: "w", Value: autograd.Param(tensor.RandN(rng, 1, 5, 7))}
		ref, vel := p.Value.T.Clone(), tensor.New(5, 7)
		sgd, err := NewSGD([]nn.Param{p}, lr, hp.momentum, hp.weightDecay)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			g := tensor.RandN(rng, 1, 5, 7)
			g.Data()[s] = 0 // exact zeros meet the decay and momentum terms too
			p.Value.EnsureGrad().CopyFrom(g)
			sgd.Step()
			threePassStep(ref, g, vel, lr, hp.momentum, hp.weightDecay)
			if !p.Value.T.EqualBits(ref) {
				t.Fatalf("momentum %v, decay %v, step %d: fused update differs from the three-pass form", hp.momentum, hp.weightDecay, s)
			}
			if !p.Value.Grad.EqualBits(g) {
				t.Fatalf("momentum %v, decay %v, step %d: Step changed the gradient", hp.momentum, hp.weightDecay, s)
			}
			if hp.momentum > 0 && !sgd.velocity[0].EqualBits(vel) {
				t.Fatalf("momentum %v, decay %v, step %d: velocity differs from the three-pass form", hp.momentum, hp.weightDecay, s)
			}
		}
	}
}

// TestDrawFromStaysLazy: bound to an arena, SGD draws a parameter's Grad and
// velocity there only once a step reaches the parameter — one no step
// touches keeps a nil Grad, no velocity, and its weights — and the updates
// match the heap optimiser's bit for bit. Unbound, a parameter's next Grad
// is a heap tensor again.
func TestDrawFromStaysLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	init := []*tensor.Tensor{tensor.RandN(rng, 1, 3, 4), tensor.RandN(rng, 1, 6)}
	train := func(ar *tensor.Arena) ([]nn.Param, *SGD) {
		ps := []nn.Param{{Name: "used", Value: autograd.Param(init[0].Clone())}, {Name: "idle", Value: autograd.Param(init[1].Clone())}}
		sgd, err := NewSGD(ps, 0.05, 0.9, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		sgd.DrawFrom(ar)
		for s := 0; s < 3; s++ {
			sgd.ZeroGrad()
			if err := autograd.Backward(autograd.Sum(autograd.Mul(ps[0].Value, ps[0].Value))); err != nil {
				t.Fatal(err)
			}
			sgd.Step()
		}
		sgd.DrawFrom(nil)
		return ps, sgd
	}
	var ar tensor.Arena
	got, sgd := train(&ar)
	want, _ := train(nil)
	used, idle := got[0].Value, got[1].Value
	if !used.Grad.DrawnFrom(&ar) || !sgd.velocity[0].DrawnFrom(&ar) {
		t.Fatal("the touched parameter's gradient or velocity was not drawn from the arena")
	}
	if ar.Retained() != 2*8*used.T.Size() {
		t.Fatalf("the arena holds %d bytes, want one gradient and one velocity, %d", ar.Retained(), 2*8*used.T.Size())
	}
	if idle.Grad != nil || sgd.velocity[1] != nil || !idle.T.EqualBits(init[1]) {
		t.Fatal("a parameter no step touched got a gradient, a velocity or an update")
	}
	if !used.T.EqualBits(want[0].Value.T) || !used.Grad.EqualBits(want[0].Value.Grad) {
		t.Fatal("updates drawn from the arena differ from the heap optimiser's")
	}
	if idle.EnsureGrad().Arena() != nil {
		t.Fatal("DrawFrom(nil) left a parameter bound to the arena")
	}
}
