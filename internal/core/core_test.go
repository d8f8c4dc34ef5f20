package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/checkpoint"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/tensor"
)

func TestCDAPShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := NewCDAP("g", rng, 5, 8, 3, 6, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tokens := autograd.Constant(tensor.RandN(rng, 1, 2, 5, 8))
	p, err := g.Generate(tokens, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 8}
	got := p.T.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prompt shape %v, want %v", got, want)
		}
	}
}

func TestCDAPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewCDAP("g", rng, 0, 8, 3, 6, 4, 4); err == nil {
		t.Fatal("zero tokens must error")
	}
	g, err := NewCDAP("g", rng, 5, 8, 3, 6, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tokens := autograd.Constant(tensor.RandN(rng, 1, 2, 5, 8))
	if _, err := g.Generate(tokens, []int{0}); err == nil {
		t.Fatal("task-id count mismatch must error")
	}
	if _, err := g.Generate(tokens, []int{0, 9}); err == nil {
		t.Fatal("out-of-range task id must error")
	}
	bad := autograd.Constant(tensor.RandN(rng, 1, 2, 4, 8))
	if _, err := g.Generate(bad, []int{0, 1}); err == nil {
		t.Fatal("wrong sequence length must error")
	}
}

func TestCDAPTaskConditioning(t *testing.T) {
	// Different task ids must yield different prompts for the same input.
	rng := rand.New(rand.NewSource(3))
	g, err := NewCDAP("g", rng, 5, 8, 3, 6, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tokens := autograd.Constant(tensor.RandN(rng, 1, 1, 5, 8))
	p0, err := g.Generate(tokens, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := g.Generate(tokens, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p0.T.AllClose(p1.T, 1e-9) {
		t.Fatal("prompts must depend on the task key")
	}
}

func TestCDAPInstanceLevel(t *testing.T) {
	// Different inputs with the same task id must yield different prompts.
	rng := rand.New(rand.NewSource(4))
	g, err := NewCDAP("g", rng, 5, 8, 3, 6, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	t1 := autograd.Constant(tensor.RandN(rng, 1, 1, 5, 8))
	t2 := autograd.Constant(tensor.RandN(rng, 1, 1, 5, 8))
	p1, err := g.Generate(t1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g.Generate(t2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if p1.T.AllClose(p2.T, 1e-9) {
		t.Fatal("prompts must be instance-level")
	}
}

func TestCDAPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := NewCDAP("g", rng, 4, 6, 2, 5, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tokens := autograd.Param(tensor.RandN(rng, 1, 2, 4, 6))
	inputs := []*autograd.Value{tokens}
	for _, p := range g.Params() {
		inputs = append(inputs, p.Value)
	}
	f := func() (*autograd.Value, error) {
		p, err := g.Generate(tokens, []int{0, 2})
		if err != nil {
			return nil, err
		}
		return autograd.Mean(autograd.Mul(p, p)), nil
	}
	if err := autograd.GradCheck(f, inputs, 1e-5, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestCDAPInferenceKey(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := NewCDAP("g", rng, 5, 8, 3, 6, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	key, err := g.InferenceKey(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Mean of first two key rows.
	want := tensor.Row(g.keys.T, 0)
	want.AddInPlace(tensor.Row(g.keys.T, 1))
	want.ScaleInPlace(0.5)
	if !key.AllClose(want, 1e-12) {
		t.Fatal("inference key is not the mean of seen task keys")
	}
	if _, err := g.InferenceKey(nil, 0); err == nil {
		t.Fatal("zero tasks seen must error")
	}
	if _, err := g.InferenceKey(nil, 9); err == nil {
		t.Fatal("too many tasks must error")
	}
	// The task-agnostic path produces prompts of the right shape.
	tokens := autograd.Constant(tensor.RandN(rng, 1, 2, 5, 8))
	p, err := g.GenerateWithKey(tokens, key)
	if err != nil {
		t.Fatal(err)
	}
	if p.T.Dim(0) != 2 || p.T.Dim(1) != 3 || p.T.Dim(2) != 8 {
		t.Fatalf("inference prompt shape %v", p.T.Shape())
	}
}

func TestLPGAccumulator(t *testing.T) {
	acc := newLPGAccumulator(2)
	acc.add(1, []float64{1, 2})
	acc.add(1, []float64{3, 4})
	acc.add(0, []float64{10, 20})
	up := acc.finish()
	if got := up.ByClass[1]; got[0] != 2 || got[1] != 3 {
		t.Fatalf("class 1 mean = %v, want [2 3]", got)
	}
	if got := up.ByClass[0]; got[0] != 10 || got[1] != 20 {
		t.Fatalf("class 0 mean = %v, want [10 20]", got)
	}
}

func TestPromptBankUpdateAndFlatten(t *testing.T) {
	bank := NewPromptBank(2)
	if !bank.Empty() {
		t.Fatal("fresh bank must be empty")
	}
	// Class 0 receives two mutually-nearest pairs pointing in opposite
	// directions (two "domains" of prompts); FINCH must keep them apart.
	uploads := []*PromptUpload{
		{ByClass: map[int][]float64{0: {1, 0}, 1: {0, 1}}},
		{ByClass: map[int][]float64{0: {0.9, 0.1}}},
		{ByClass: map[int][]float64{0: {-1, 0}}},
		{ByClass: map[int][]float64{0: {-0.9, -0.1}}},
	}
	if err := bank.Update(uploads, 3); err != nil {
		t.Fatal(err)
	}
	if bank.Empty() {
		t.Fatal("bank must hold prompts after update")
	}
	flat, classes := bank.Flatten()
	if flat.Dim(0) != len(classes) {
		t.Fatal("flatten row/class mismatch")
	}
	n0 := 0
	for _, c := range classes {
		if c == 0 {
			n0++
		}
	}
	if n0 != 2 {
		t.Fatalf("class 0 has %d representatives, want 2 (opposite prompt domains)", n0)
	}
}

func TestPromptBankCapsRepresentatives(t *testing.T) {
	bank := NewPromptBank(2)
	rng := rand.New(rand.NewSource(7))
	var uploads []*PromptUpload
	for i := 0; i < 20; i++ {
		uploads = append(uploads, &PromptUpload{ByClass: map[int][]float64{
			0: {rng.NormFloat64(), rng.NormFloat64()},
		}})
	}
	if err := bank.Update(uploads, 2); err != nil {
		t.Fatal(err)
	}
	if got := bank.byClass[0].Dim(0); got > 2 {
		t.Fatalf("class 0 has %d representatives, budget 2", got)
	}
}

func TestPromptBankUpdateNoClustering(t *testing.T) {
	bank := NewPromptBank(2)
	uploads := []*PromptUpload{
		{ByClass: map[int][]float64{0: {1, 0}}},
		{ByClass: map[int][]float64{0: {-1, 0}}},
		{ByClass: map[int][]float64{0: {0, 2}}},
	}
	if err := bank.UpdateNoClustering(uploads); err != nil {
		t.Fatal(err)
	}
	reps := bank.byClass[0]
	if reps.Dim(0) != 1 {
		t.Fatalf("no-clustering bank keeps %d representatives, want 1", reps.Dim(0))
	}
	// Plain mean: (0, 2/3).
	if math.Abs(reps.At(0, 0)) > 1e-12 || math.Abs(reps.At(0, 1)-2.0/3.0) > 1e-12 {
		t.Fatalf("no-clustering mean = (%v,%v)", reps.At(0, 0), reps.At(0, 1))
	}
}

func TestRefFiLDisableClusteringEndToEnd(t *testing.T) {
	cfg := DefaultConfig(7, 4)
	cfg.DisableClustering = true
	r, err := New(cfg, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	up := trainOnce(t, r, fl.GroupNew, 0)
	if err := r.ServerRound(0, 0, []fl.Upload{up, up}); err != nil {
		t.Fatal(err)
	}
	for _, k := range r.Bank().Classes() {
		if r.Bank().byClass[k].Dim(0) != 1 {
			t.Fatal("no-clustering bank must hold exactly one prompt per class")
		}
	}
}

func TestPromptBankValidation(t *testing.T) {
	bank := NewPromptBank(2)
	if err := bank.Update(nil, 0); err == nil {
		t.Fatal("non-positive budget must error")
	}
	bad := []*PromptUpload{{ByClass: map[int][]float64{0: {1, 2, 3}}}}
	if err := bank.Update(bad, 2); err == nil {
		t.Fatal("width mismatch must error")
	}
}

func TestPromptBankMeanPerClass(t *testing.T) {
	bank := NewPromptBank(2)
	uploads := []*PromptUpload{
		{ByClass: map[int][]float64{0: {1, 0}}},
		{ByClass: map[int][]float64{0: {0, 1}}},
	}
	if err := bank.Update(uploads, 5); err != nil {
		t.Fatal(err)
	}
	mean := bank.MeanPerClass()
	if mean.Dim(0) != 1 {
		t.Fatalf("mean rows = %d, want 1", mean.Dim(0))
	}
	// Mean of representatives of class 0; if both kept, (0.5, 0.5).
	reps := bank.byClass[0]
	wantX := tensor.MeanAxis(reps, 0, false)
	if !tensor.Row(mean, 0).AllClose(wantX, 1e-12) {
		t.Fatal("MeanPerClass disagrees with representative average")
	}
}

func TestSelectPositives(t *testing.T) {
	bank := tensor.FromSlice([]float64{
		1, 0, // class 0, aligned with u
		0, 1, // class 0, orthogonal
		-1, 0, // class 1
	}, 3, 2)
	classes := []int{0, 0, 1}
	u := []float64{1, 0.1}
	pick := newPositivePicker(4, 2, len(classes))
	pos := pick.selectPositives(u, bank, classes, 0, 1)
	if len(pos) != 1 || pos[0] != 0 {
		t.Fatalf("positives = %v, want [0]", pos)
	}
	pos2 := pick.selectPositives(u, bank, classes, 0, 2)
	if len(pos2) != 2 || pos2[0] != 0 || pos2[1] != 1 {
		t.Fatalf("numPos=2 returned %v, want [0 1]", pos2)
	}
	// Class without candidates: empty.
	if got := pick.selectPositives(u, bank, classes, 7, 1); got != nil {
		t.Fatalf("absent class returned %v", got)
	}
	// numPos larger than candidates clamps.
	if got := pick.selectPositives(u, bank, classes, 1, 5); len(got) != 1 || got[0] != 2 {
		t.Fatalf("clamping failed: %v", got)
	}
	// Later samples of the batch leave earlier results as they were.
	if pos[0] != 0 || pos2[0] != 0 || pos2[1] != 1 {
		t.Fatalf("earlier results changed to %v and %v", pos, pos2)
	}
	// A picker sized for its batch serves it without allocating.
	if !raceEnabled {
		pick = newPositivePicker(100, 2, len(classes))
		if n := testing.AllocsPerRun(50, func() { pick.selectPositives(u, bank, classes, 0, 2) }); n != 0 {
			t.Errorf("selectPositives allocates %v times per sample, want 0", n)
		}
	}
}

func TestDecayedTemperature(t *testing.T) {
	// Paper Table VIII: τ=0.9, τmin=0.3, γ=0.1, β=0.05 gives τ′=0.720 at
	// the 3rd task.
	got, err := DecayedTemperature(0.9, 0.3, 0.1, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.72) > 1e-12 {
		t.Fatalf("τ′(3) = %v, want 0.720", got)
	}
	// Exp 1 of Table VIII: τ=0.5, τmin=0.2, γ=0.15, β=0.1 -> 0.325.
	got, err = DecayedTemperature(0.5, 0.2, 0.15, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.325) > 1e-12 {
		t.Fatalf("exp-1 τ′(3) = %v, want 0.325", got)
	}
	// Floor clamps.
	got, err = DecayedTemperature(0.9, 0.3, 0.1, 0.05, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.3 {
		t.Fatalf("τ′ floor = %v, want 0.3", got)
	}
}

func TestDecayedTemperatureValidation(t *testing.T) {
	if _, err := DecayedTemperature(0, 0.3, 0.1, 0.05, 1); err == nil {
		t.Fatal("zero tau must error")
	}
	if _, err := DecayedTemperature(0.9, 0.3, 2, 0.05, 1); err == nil {
		t.Fatal("gamma > 1 must error")
	}
	if _, err := DecayedTemperature(0.9, 0.3, 0.1, 0.05, 0); err == nil {
		t.Fatal("task 0 must error")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig(5, 4)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.PromptLen = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero prompt length with CDAP must error")
	}
	bad2 := cfg
	bad2.Tau = -1
	if err := bad2.Validate(); err == nil {
		t.Fatal("negative tau with DPCL must error")
	}
	// Disabled components relax requirements.
	off := cfg
	off.EnableCDAP, off.EnableGPL, off.EnableDPCL = false, false, false
	off.PromptLen = 0
	off.Tau = -1
	if err := off.Validate(); err != nil {
		t.Fatalf("all-off config should not validate prompt params: %v", err)
	}
}

func TestRefFiLName(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	full, err := New(DefaultConfig(4, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	if full.Name() != "RefFiL" {
		t.Fatalf("full name = %q", full.Name())
	}
	cfg := DefaultConfig(4, 3)
	cfg.EnableDPCL = false
	partial, err := New(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if partial.Name() == "RefFiL" {
		t.Fatal("ablated variant must not claim the full name")
	}
}

// trainOnce drives one LocalTrain call on synthetic data.
func trainOnce(t *testing.T, r *RefFiL, group fl.Group, task int) fl.Upload {
	t.Helper()
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := family.Generate(family.Domains[task], 21, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	train.SetTask(task)
	if err := r.OnTaskStart(task); err != nil {
		t.Fatal(err)
	}
	up, err := r.LocalTrain(&fl.LocalContext{
		ClientID:   0,
		Task:       task,
		ClientTask: task,
		Group:      group,
		Data:       train,
		Epochs:     1,
		BatchSize:  7,
		LR:         0.02,
		Rng:        rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return up
}

func TestRefFiLLocalTrainProducesUpload(t *testing.T) {
	cfg := DefaultConfig(7, 4)
	r, err := New(cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	up := trainOnce(t, r, fl.GroupNew, 0)
	pu, ok := up.(*PromptUpload)
	if !ok {
		t.Fatalf("upload type %T, want *PromptUpload", up)
	}
	if len(pu.ByClass) == 0 {
		t.Fatal("upload has no per-class prompts")
	}
	for k, v := range pu.ByClass {
		if len(v) != cfg.Model.TokenDim {
			t.Fatalf("class %d prompt width %d, want %d", k, len(v), cfg.Model.TokenDim)
		}
	}
}

func TestRefFiLServerRoundBuildsBank(t *testing.T) {
	cfg := DefaultConfig(7, 4)
	r, err := New(cfg, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	up := trainOnce(t, r, fl.GroupNew, 0)
	if err := r.ServerRound(0, 0, []fl.Upload{up, up}); err != nil {
		t.Fatal(err)
	}
	if r.Bank().Empty() {
		t.Fatal("bank empty after server round with uploads")
	}
	// Second round with the bank populated exercises GPL + DPCL paths.
	up2 := trainOnce(t, r, fl.GroupInBetween, 1)
	if up2 == nil {
		t.Fatal("second round produced no upload")
	}
}

func TestRefFiLServerRoundRejectsBadUpload(t *testing.T) {
	r, err := New(DefaultConfig(7, 4), rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ServerRound(0, 0, []fl.Upload{42}); err == nil {
		t.Fatal("wrong upload type must error")
	}
}

// TestRefFiLWireRoundTrip moves the server's bank and task counter, and a
// client's prompt upload, through their checkpoint-dict byte forms: the
// bytes are deterministic, the receiver ends up bit-identical, and every
// malformed dict is rejected.
func TestRefFiLWireRoundTrip(t *testing.T) {
	cfg := DefaultConfig(7, 4)
	dim := cfg.Model.TokenDim
	server, err := New(cfg, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	up := trainOnce(t, server, fl.GroupNew, 0)
	if err := server.ServerRound(0, 0, []fl.Upload{up, up}); err != nil {
		t.Fatal(err)
	}
	if err := server.OnTaskStart(2); err != nil {
		t.Fatal(err)
	}

	state, err := server.EncodeWireState()
	if err != nil {
		t.Fatal(err)
	}
	again, err := server.EncodeWireState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, again) {
		t.Fatal("wire state must encode to the same bytes every call")
	}
	worker, err := New(cfg, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.LoadWireState(state); err != nil {
		t.Fatal(err)
	}
	if worker.server.task != 2 {
		t.Fatalf("task counter %d, want 2", worker.server.task)
	}
	classes := server.Bank().Classes()
	if got := worker.Bank().Classes(); !reflect.DeepEqual(got, classes) {
		t.Fatalf("bank classes %v, want %v", got, classes)
	}
	for _, k := range classes {
		if !worker.Bank().byClass[k].EqualBits(server.Bank().byClass[k]) {
			t.Fatalf("class %d prompts changed in transit", k)
		}
	}

	enc, err := worker.EncodeUpload(up)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := worker.EncodeUpload(up)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("upload must encode to the same bytes every call")
	}
	back, err := server.DecodeUpload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, up) {
		t.Fatalf("upload decoded as %v, want %v", back, up)
	}

	marshal := func(dict map[string]*tensor.Tensor) []byte {
		t.Helper()
		b, err := checkpoint.Marshal(dict)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	task := tensor.FromSlice([]float64{1}, 1)
	badStates := map[string]map[string]*tensor.Tensor{
		"no task counter":     {"bank/0": tensor.New(2, dim)},
		"two-element counter": {"task": tensor.New(2)},
		"fractional counter":  {"task": tensor.FromSlice([]float64{1.5}, 1)},
		"negative counter":    {"task": tensor.FromSlice([]float64{-1}, 1)},
		"unknown key":         {"task": task, "teacher/w": tensor.New(2, dim)},
		"non-canonical class": {"task": task, "bank/01": tensor.New(2, dim)},
		"wrong width":         {"task": task, "bank/0": tensor.New(2, dim+1)},
		"zero rows":           {"task": task, "bank/0": tensor.New(0, dim)},
		"flat matrix":         {"task": task, "bank/0": tensor.New(2 * dim)},
	}
	for name, dict := range badStates {
		if err := worker.LoadWireState(marshal(dict)); err == nil {
			t.Errorf("wire state with %s must be rejected", name)
		}
	}
	if err := worker.LoadWireState(state[:len(state)-1]); err == nil {
		t.Error("truncated wire state must be rejected")
	}
	if worker.server.task != 2 || !reflect.DeepEqual(worker.Bank().Classes(), classes) {
		t.Fatal("a rejected wire state must leave the receiver untouched")
	}
	badUploads := map[string]map[string]*tensor.Tensor{
		"unknown key": {"bank/0": tensor.New(dim)},
		"wrong width": {"0": tensor.New(dim + 1)},
		"a matrix":    {"0": tensor.New(1, dim)},
	}
	for name, dict := range badUploads {
		if _, err := server.DecodeUpload(marshal(dict)); err == nil {
			t.Errorf("upload with %s must be rejected", name)
		}
	}
	if _, err := server.EncodeUpload(42); err == nil {
		t.Error("wrong upload type must not encode")
	}
}

func TestRefFiLPredict(t *testing.T) {
	r, err := New(DefaultConfig(7, 4), rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.OnTaskStart(0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	x := tensor.RandN(rng, 1, 3, 3, 16, 16)
	pred, err := r.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 3 {
		t.Fatalf("got %d predictions for 3 inputs", len(pred))
	}
	for _, p := range pred {
		if p < 0 || p >= 7 {
			t.Fatalf("prediction %d out of class range", p)
		}
	}
}

func TestRefFiLAblationWithoutCDAP(t *testing.T) {
	cfg := DefaultConfig(7, 4)
	cfg.EnableCDAP = false
	r, err := New(cfg, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	if r.gen != nil {
		t.Fatal("disabled CDAP must not allocate a generator")
	}
	// GPL-only still uploads token-mean prototypes.
	up := trainOnce(t, r, fl.GroupNew, 0)
	if up == nil {
		t.Fatal("GPL-only variant must still upload prompt groups")
	}
	if _, err := r.Predict(tensor.New(1, 3, 16, 16)); err != nil {
		t.Fatal(err)
	}
}

func TestRefFiLAblationAllOff(t *testing.T) {
	cfg := DefaultConfig(7, 4)
	cfg.EnableCDAP, cfg.EnableGPL, cfg.EnableDPCL = false, false, false
	r, err := New(cfg, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	up := trainOnce(t, r, fl.GroupNew, 0)
	if up != nil {
		t.Fatal("all-off variant must not upload prompts")
	}
}

func TestRefFiLTaskCapacity(t *testing.T) {
	r, err := New(DefaultConfig(4, 2), rand.New(rand.NewSource(18)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.OnTaskStart(2); err == nil {
		t.Fatal("task beyond key capacity must error")
	}
}

func TestRefFiLEndToEndFederated(t *testing.T) {
	// Full integration: RefFiL under the engine on two PACS domains.
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := DefaultConfig(7, 4)
	r, err := New(cfg, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(fl.Config{
		Rounds: 3, Epochs: 2, BatchSize: 8, LR: 0.05,
		InitialClients: 4, SelectPerRound: 3, ClientsPerTaskInc: 1,
		TransferFrac: 0.8, Alpha: 0.5,
		TrainPerDomain: 84, TestPerDomain: 28, EvalBatch: 14,
		Seed: 99,
	}, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, family.Domains[:2])
	if err != nil {
		t.Fatal(err)
	}
	sum, err := mat.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	// With 7 classes, chance is ~0.143; two rounds of training must beat
	// chance on the first task at least.
	if sum.TaskAcc[0] < 0.18 {
		t.Fatalf("task-0 accuracy %v barely above chance; training broken?", sum.TaskAcc[0])
	}
	if r.Bank().Empty() {
		t.Fatal("bank never populated during federated run")
	}
}
