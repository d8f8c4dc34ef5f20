package model

import (
	"math/rand"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/nn"
	"reffil/internal/opt"
	"reffil/internal/tensor"
)

func newTestBackbone(t *testing.T, classes int) *Backbone {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	b, err := New(DefaultConfig(classes), rng)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default ok", func(c *Config) {}, false},
		{"zero width", func(c *Config) { c.BaseWidth = 0 }, true},
		{"heads mismatch", func(c *Config) { c.Heads = 5 }, true},
		{"image not multiple of 8", func(c *Config) { c.ImageSize = 12 }, true},
		{"zero classes", func(c *Config) { c.Classes = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(10)
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTokensShape(t *testing.T) {
	b := newTestBackbone(t, 10)
	rng := rand.New(rand.NewSource(2))
	x := autograd.Constant(tensor.RandN(rng, 1, 3, 3, 16, 16))
	tok, err := b.Tokens(&nn.Ctx{Train: true}, x)
	if err != nil {
		t.Fatal(err)
	}
	// 16/8 = 2 -> 4 patches + CLS = 5 tokens.
	want := []int{3, 5, 32}
	got := tok.T.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token shape %v, want %v", got, want)
		}
	}
}

func TestForwardShapes(t *testing.T) {
	b := newTestBackbone(t, 7)
	rng := rand.New(rand.NewSource(3))
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 3, 16, 16))
	logits, err := b.Forward(&nn.Ctx{Train: true}, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if logits.T.Dim(0) != 2 || logits.T.Dim(1) != 7 {
		t.Fatalf("logit shape %v, want (2,7)", logits.T.Shape())
	}
}

func TestForwardWithPrompts(t *testing.T) {
	b := newTestBackbone(t, 7)
	rng := rand.New(rand.NewSource(4))
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 3, 16, 16))
	prompts := autograd.Constant(tensor.RandN(rng, 0.1, 2, 3, 32))
	logits, err := b.Forward(&nn.Ctx{Train: true}, x, prompts)
	if err != nil {
		t.Fatal(err)
	}
	if logits.T.Dim(0) != 2 || logits.T.Dim(1) != 7 {
		t.Fatalf("logit shape %v", logits.T.Shape())
	}
	// Prompts must actually change the prediction path.
	plain, err := b.Forward(&nn.Ctx{Train: false}, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	prompted, err := b.Forward(&nn.Ctx{Train: false}, x, prompts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.T.AllClose(prompted.T, 1e-9) {
		t.Fatal("prompt insertion did not affect logits")
	}
}

func TestWithPromptsValidation(t *testing.T) {
	b := newTestBackbone(t, 7)
	rng := rand.New(rand.NewSource(5))
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 3, 16, 16))
	tokens, err := b.Tokens(&nn.Ctx{Train: false}, x)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong batch.
	bad := autograd.Constant(tensor.RandN(rng, 1, 3, 2, 32))
	if _, err := b.Classify(tokens, bad); err == nil {
		t.Fatal("batch mismatch must error")
	}
	// Wrong width.
	bad2 := autograd.Constant(tensor.RandN(rng, 1, 2, 2, 16))
	if _, err := b.Classify(tokens, bad2); err == nil {
		t.Fatal("token width mismatch must error")
	}
	// Budget exceeded.
	bad3 := autograd.Constant(tensor.RandN(rng, 1, 2, 17, 32))
	if _, err := b.Classify(tokens, bad3); err == nil {
		t.Fatal("prompt budget overflow must error")
	}
}

func TestPredictMatchesForward(t *testing.T) {
	b := newTestBackbone(t, 5)
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandN(rng, 1, 4, 3, 16, 16)
	pred, err := b.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	logits, err := b.Forward(&nn.Ctx{Train: false}, autograd.Constant(x), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.ArgmaxRows(logits.T)
	for i := range pred {
		if pred[i] != want[i] {
			t.Fatalf("Predict disagrees with Forward at %d", i)
		}
	}
	// Predict reads the parameters as constants only for its own call.
	for _, p := range b.Params() {
		if !p.Value.RequiresGrad() || p.Value.Grad != nil {
			t.Fatalf("after Predict, %s requires grad %v with Grad %v; want restored and untouched", p.Name, p.Value.RequiresGrad(), p.Value.Grad)
		}
	}
}

func TestBackboneTrainsOnToyTask(t *testing.T) {
	// End-to-end: the full backbone must fit a small two-class batch.
	b := newTestBackbone(t, 2)
	rng := rand.New(rand.NewSource(8))
	// Class 0: dark images; class 1: bright images.
	x := tensor.New(6, 3, 16, 16)
	labels := make([]int, 6)
	for i := 0; i < 6; i++ {
		v := 0.15
		if i%2 == 1 {
			v = 0.85
			labels[i] = 1
		}
		for j := 0; j < 3*16*16; j++ {
			x.Data()[i*3*16*16+j] = v + rng.NormFloat64()*0.03
		}
	}
	sgd, err := opt.NewSGD(b.Params(), 0.05, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &nn.Ctx{Train: true}
	var first, last float64
	for step := 0; step < 12; step++ {
		sgd.ZeroGrad()
		logits, err := b.Forward(ctx, autograd.Constant(x), nil)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := autograd.SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.ClipGradNorm(b.Params(), 5)
		sgd.Step()
		if step == 0 {
			first = loss.T.Item()
		}
		last = loss.T.Item()
	}
	if last >= first {
		t.Fatalf("backbone failed to fit toy task: loss %v -> %v", first, last)
	}
}

func TestStateDictRoundTripThroughBackbone(t *testing.T) {
	b1 := newTestBackbone(t, 4)
	rng := rand.New(rand.NewSource(9))
	b2, err := New(DefaultConfig(4), rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadStateDict(b2, nn.StateDict(b1)); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(rng, 1, 2, 3, 16, 16)
	p1, err := b1.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b2.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("state-dict transplant changed predictions")
		}
	}
}

func TestBackboneParamNamesUnique(t *testing.T) {
	b := newTestBackbone(t, 4)
	seen := make(map[string]bool)
	for _, p := range b.Params() {
		if seen[p.Name] {
			t.Fatalf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, buf := range b.Buffers() {
		if seen[buf.Name] {
			t.Fatalf("duplicate buffer name %q", buf.Name)
		}
		seen[buf.Name] = true
	}
}
