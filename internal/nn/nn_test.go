package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", rng, 4, 3, true)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 4))
	y := l.Forward(x)
	if y.T.Dim(0) != 2 || y.T.Dim(1) != 3 {
		t.Fatalf("output shape %v, want (2,3)", y.T.Shape())
	}
}

func TestLinearHigherRankInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", rng, 4, 3, true)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 5, 4))
	y := l.Forward(x)
	want := []int{2, 5, 3}
	got := y.T.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output shape %v, want %v", got, want)
		}
	}
	// Row (b,i) must equal applying the layer to that row alone.
	row := autograd.Constant(tensor.Narrow(x.T, 0, 1, 2).Reshape(5, 4))
	yRow := l.Forward(row)
	sub := tensor.Narrow(y.T, 0, 1, 2).Reshape(5, 3)
	if !sub.AllClose(yRow.T, 1e-12) {
		t.Fatal("higher-rank forward disagrees with 2-D forward")
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("l", rng, 3, 2, true)
	x := autograd.Param(tensor.RandN(rng, 1, 4, 3))
	inputs := []*autograd.Value{x, l.W, l.B}
	f := func() (*autograd.Value, error) {
		return autograd.Mean(square(l.Forward(x))), nil
	}
	if err := autograd.GradCheck(f, inputs, 1e-5, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear("l", rng, 3, 2, true)
	if len(l.Params()) != 2 {
		t.Fatalf("unfrozen layer has %d params, want 2", len(l.Params()))
	}
	l.Freeze()
	if len(l.Params()) != 0 {
		t.Fatal("frozen layer must expose no trainable params")
	}
	if len(l.Buffers()) != 2 {
		t.Fatal("frozen layer must expose weights as buffers")
	}
}

// TestFreezeKeepsLayout: nn.Freeze, and Inference while it runs, only flip
// the parameter leaves' flags — a Linear keeps its weights as parameters, so
// the state dict a frozen module (LwF's teacher) encodes has every key.
func TestFreezeKeepsLayout(t *testing.T) {
	m := NewMLP("m", rand.New(rand.NewSource(4)), 3, 4, 2)
	want := len(StateDict(m))
	inside, err := Inference(m, func() (int, error) {
		for _, p := range m.Params() {
			if p.Value.RequiresGrad() {
				t.Errorf("%s requires grad inside Inference", p.Name)
			}
		}
		return len(StateDict(m)), nil
	})
	if err != nil || inside != want {
		t.Fatalf("state dict has %d keys inside Inference (err %v), %d outside", inside, err, want)
	}
	Freeze(m)
	if got := len(StateDict(m)); got != want || len(m.Params()) != 4 {
		t.Fatalf("frozen: %d state-dict keys and %d params, want %d and 4", got, len(m.Params()), want)
	}
	for _, p := range m.Params() {
		if p.Value.RequiresGrad() {
			t.Fatalf("%s still requires grad after Freeze", p.Name)
		}
	}
}

// TestModuleListsAllocateNothing: every layer builds its Params and Buffers
// when it is constructed or cloned, so reading them allocates nothing, and
// they are capped at their lengths, so a caller's append copies them instead
// of writing into the layer's list.
func TestModuleListsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	block, err := NewAttentionBlock("a", rng, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	resnet := NewResNet10("r", rng, 2)
	for name, m := range map[string]Module{
		"ResNet10":       resnet,
		"ResNet10 clone": resnet.Clone(),
		"AttentionBlock": block,
		"PatchEmbed":     NewPatchEmbed("p", rng, 4, 8, 4),
	} {
		if n := testing.AllocsPerRun(10, func() { m.Params(); m.Buffers() }); n != 0 {
			t.Errorf("%s: Params and Buffers allocate %v objects, want 0", name, n)
		}
		if ps, bs := m.Params(), m.Buffers(); cap(ps) != len(ps) || cap(bs) != len(bs) {
			t.Errorf("%s: %d of %d parameters and %d of %d buffers used, want the lists capped at their lengths",
				name, len(ps), cap(ps), len(bs), cap(bs))
		}
	}
}

func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP("m", rng, 3, 5, 2)
	x := autograd.Param(tensor.RandN(rng, 1, 2, 3))
	inputs := []*autograd.Value{x}
	for _, p := range m.Params() {
		inputs = append(inputs, p.Value)
	}
	f := func() (*autograd.Value, error) {
		return autograd.Mean(square(m.Forward(x))), nil
	}
	if err := autograd.GradCheck(f, inputs, 1e-5, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestConv2dForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewConv2d("c", rng, 3, 8, 3, 2, 1, false)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 3, 8, 8))
	y, err := c.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 8, 4, 4}
	got := y.T.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("conv output %v, want %v", got, want)
		}
	}
}

func TestBatchNormTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2d("bn", 4)
	x := autograd.Constant(tensor.RandN(rng, 2, 8, 4, 3, 3))
	// Train forwards shift running stats toward batch stats.
	for i := 0; i < 50; i++ {
		if _, err := bn.Forward(&Ctx{Train: true}, x); err != nil {
			t.Fatal(err)
		}
	}
	// After convergence of running stats, eval output approximates train
	// output on the same data.
	trainOut, err := bn.Forward(&Ctx{Train: true}, x)
	if err != nil {
		t.Fatal(err)
	}
	evalOut, err := bn.Forward(&Ctx{Train: false}, x)
	if err != nil {
		t.Fatal(err)
	}
	if !trainOut.T.AllClose(evalOut.T, 0.1) {
		t.Fatal("eval output should approximate train output after running stats converge")
	}
}

func TestBasicBlockIdentitySkipShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := NewBasicBlock("b", rng, 4, 4, 1)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 4, 6, 6))
	y, err := b.Forward(&Ctx{Train: true}, x)
	if err != nil {
		t.Fatal(err)
	}
	if !y.T.SameShape(x.T) {
		t.Fatalf("identity block changed shape: %v -> %v", x.T.Shape(), y.T.Shape())
	}
	if b.downConv != nil {
		t.Fatal("stride-1 same-width block must not allocate a downsample path")
	}
}

func TestBasicBlockDownsampleShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBasicBlock("b", rng, 4, 8, 2)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 4, 6, 6))
	y, err := b.Forward(&Ctx{Train: true}, x)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 8, 3, 3}
	got := y.T.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("downsample block output %v, want %v", got, want)
		}
	}
}

func TestResNet10OutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r := NewResNet10("r", rng, 4)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 3, 16, 16))
	y, err := r.Forward(&Ctx{Train: true}, x)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 32, 2, 2}
	got := y.T.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resnet output %v, want %v", got, want)
		}
	}
	if r.OutC != 32 {
		t.Fatalf("OutC = %d, want 32", r.OutC)
	}
}

func TestResNet10Trains(t *testing.T) {
	// A few SGD steps on a fixed batch must reduce the loss: end-to-end
	// smoke test of conv/bn/residual backward passes.
	rng := rand.New(rand.NewSource(11))
	r := NewResNet10("r", rng, 4)
	head := NewLinear("head", rng, 32, 3, true)
	x := autograd.Constant(tensor.RandN(rng, 1, 6, 3, 8, 8))
	labels := []int{0, 1, 2, 0, 1, 2}
	ctx := &Ctx{Train: true}
	step := func() float64 {
		fm, err := r.Forward(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		b, c := fm.T.Dim(0), fm.T.Dim(1)
		pooled := autograd.MeanAxis(autograd.Reshape(fm, b, c, fm.T.Size()/(b*c)), 2)
		logits := head.Forward(pooled)
		loss, err := autograd.SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		ZeroGrads(r)
		ZeroGrads(head)
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		for _, p := range append(r.Params(), head.Params()...) {
			p.Value.T.AddScaledInPlace(-0.05, p.Value.EnsureGrad())
		}
		return loss.T.Item()
	}
	first := step()
	var last float64
	for i := 0; i < 8; i++ {
		last = step()
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestMHSAGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, err := NewMHSA("m", rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := autograd.Param(tensor.RandN(rng, 1, 2, 3, 4))
	inputs := []*autograd.Value{x}
	for _, p := range m.Params() {
		inputs = append(inputs, p.Value)
	}
	f := func() (*autograd.Value, error) {
		y, err := m.Forward(x)
		if err != nil {
			return nil, err
		}
		return autograd.Mean(square(y)), nil
	}
	if err := autograd.GradCheck(f, inputs, 1e-5, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestMHSARejectsBadDims(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	if _, err := NewMHSA("m", rng, 5, 2); err == nil {
		t.Fatal("dim not divisible by heads must error")
	}
	m, err := NewMHSA("m", rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 3, 6))
	if _, err := m.Forward(x); err == nil {
		t.Fatal("wrong token width must error")
	}
}

func TestAttentionBlockGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a, err := NewAttentionBlock("a", rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := autograd.Param(tensor.RandN(rng, 1, 2, 3, 4))
	inputs := []*autograd.Value{x}
	for _, p := range a.Params() {
		inputs = append(inputs, p.Value)
	}
	f := func() (*autograd.Value, error) {
		y, err := a.Forward(x)
		if err != nil {
			return nil, err
		}
		return autograd.Mean(square(y)), nil
	}
	if err := autograd.GradCheck(f, inputs, 1e-5, 2e-4); err != nil {
		t.Fatal(err)
	}
}

func TestAttentionPermutationEquivariance(t *testing.T) {
	// Self-attention without masks is permutation-equivariant over tokens
	// up to the positional difference; our MHSA adds no positions itself,
	// so swapping input tokens must swap output tokens.
	rng := rand.New(rand.NewSource(15))
	m, err := NewMHSA("m", rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(rng, 1, 1, 3, 4)
	y1, err := m.Forward(autograd.Constant(x))
	if err != nil {
		t.Fatal(err)
	}
	// Swap tokens 0 and 2.
	xs := x.Clone()
	for d := 0; d < 4; d++ {
		a, b := xs.At(0, 0, d), xs.At(0, 2, d)
		xs.Set(b, 0, 0, d)
		xs.Set(a, 0, 2, d)
	}
	y2, err := m.Forward(autograd.Constant(xs))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		if math.Abs(y1.T.At(0, 0, d)-y2.T.At(0, 2, d)) > 1e-9 {
			t.Fatal("MHSA is not permutation-equivariant")
		}
	}
}

func TestPatchEmbedShapeAndFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p := NewPatchEmbed("p", rng, 8, 6, 16)
	if len(p.Params()) != 0 {
		t.Fatal("tokenizer must be frozen")
	}
	fm := autograd.Constant(tensor.RandN(rng, 1, 2, 8, 2, 2))
	tok, err := p.Forward(fm)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 6}
	got := tok.T.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token shape %v, want %v", got, want)
		}
	}
}

func TestPatchEmbedTooManyTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := NewPatchEmbed("p", rng, 8, 6, 2)
	fm := autograd.Constant(tensor.RandN(rng, 1, 1, 8, 2, 2))
	if _, err := p.Forward(fm); err == nil {
		t.Fatal("exceeding positional table must error")
	}
}

func TestStateDictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	r1 := NewResNet10("r", rng, 4)
	r2 := NewResNet10("r", rand.New(rand.NewSource(99)), 4)
	dict := StateDict(r1)
	if err := LoadStateDict(r2, dict); err != nil {
		t.Fatal(err)
	}
	// Same weights -> same eval output.
	x := autograd.Constant(tensor.RandN(rng, 1, 1, 3, 8, 8))
	ctx := &Ctx{Train: false}
	y1, err := r1.Forward(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := r2.Forward(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if !y1.T.AllClose(y2.T, 1e-12) {
		t.Fatal("loaded model must reproduce source model outputs")
	}
}

func TestLoadStateDictRejectsMissingAndUnknown(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	r := NewResNet10("r", rng, 4)
	dict := StateDict(r)
	// Unknown entry.
	dict["bogus"] = tensor.New(1)
	if err := LoadStateDict(r, dict); err == nil {
		t.Fatal("unknown entry must error")
	}
	delete(dict, "bogus")
	// Missing entry.
	for k := range dict {
		delete(dict, k)
		break
	}
	if err := LoadStateDict(r, dict); err == nil {
		t.Fatal("missing entry must error")
	}
	// An entry of the right size in another shape: the stem's weight with
	// its axes reversed.
	dict = StateDict(r)
	stem := r.Params()[0]
	shape := stem.Value.T.Shape()
	slices.Reverse(shape)
	dict[stem.Name] = tensor.New(shape...)
	if dict[stem.Name].SameShape(stem.Value.T) {
		t.Fatalf("reversing %v left its shape unchanged", shape)
	}
	err := LoadStateDict(r, dict)
	if err == nil {
		t.Fatalf("entry %q of shape %v loaded into %v", stem.Name, shape, stem.Value.T.Shape())
	}
	// Both shapes hold the same element count, so only the shapes tell the
	// reader what is wrong.
	for _, want := range []string{fmt.Sprint(shape), fmt.Sprint(stem.Value.T.Shape())} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not name shape %s", err, want)
		}
	}
	// A dict of a narrower backbone: the same keys, other sizes.
	if err := LoadStateDict(r, StateDict(NewResNet10("r", rng, 2))); err == nil {
		t.Fatal("a narrower backbone's state dict loaded")
	}
}

func TestStateDictNamesAreUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	r := NewResNet10("r", rng, 4)
	seen := make(map[string]bool)
	for _, p := range r.Params() {
		if seen[p.Name] {
			t.Fatalf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, b := range r.Buffers() {
		if seen[b.Name] {
			t.Fatalf("duplicate buffer name %q", b.Name)
		}
		seen[b.Name] = true
	}
}

// square is v² as a tape op, for scalarizing gradient checks.
func square(v *autograd.Value) *autograd.Value { return autograd.Mul(v, v) }
