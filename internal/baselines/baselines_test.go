package baselines

import (
	"math/rand"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

const testClasses = 7

func testModelCfg() model.Config { return model.DefaultConfig(testClasses) }

// localCtx builds a single-client training context over synthetic data.
func localCtx(t *testing.T, task int, group fl.Group) *fl.LocalContext {
	t.Helper()
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := family.Generate(family.Domains[task], 21, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	train.SetTask(task)
	return &fl.LocalContext{
		ClientID: 0, Task: task, ClientTask: task, Group: group,
		Data: train, Epochs: 1, BatchSize: 7, LR: 0.02,
		Rng: rand.New(rand.NewSource(int64(task) + 21)),
	}
}

// allMethods builds one instance of every baseline.
func allMethods(t *testing.T) []fl.Algorithm {
	t.Helper()
	ft, err := NewFinetune(testModelCfg(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	lwf, err := NewFedLwF(testModelCfg(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	ewc, err := NewFedEWC(testModelCfg(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	l2p, err := NewFedL2P(testModelCfg(), false, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	l2pPool, err := NewFedL2P(testModelCfg(), true, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewFedDualPrompt(testModelCfg(), 4, false, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	dpPool, err := NewFedDualPrompt(testModelCfg(), 4, true, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return []fl.Algorithm{ft, lwf, ewc, l2p, l2pPool, dp, dpPool}
}

func TestMethodNamesDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range allMethods(t) {
		if seen[m.Name()] {
			t.Fatalf("duplicate method name %q", m.Name())
		}
		seen[m.Name()] = true
	}
}

func TestAllMethodsTrainAndPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.RandN(rng, 1, 3, 3, 16, 16)
	for _, m := range allMethods(t) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			if err := m.OnTaskStart(0); err != nil {
				t.Fatal(err)
			}
			if _, err := m.LocalTrain(localCtx(t, 0, fl.GroupNew)); err != nil {
				t.Fatal(err)
			}
			pred, err := m.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if len(pred) != 3 {
				t.Fatalf("got %d predictions for 3 inputs", len(pred))
			}
			for _, p := range pred {
				if p < 0 || p >= testClasses {
					t.Fatalf("prediction %d out of range", p)
				}
			}
		})
	}
}

func TestAllMethodsStateDictRoundTrip(t *testing.T) {
	// Every method's Global() must survive StateDict/LoadStateDict: the
	// property FedAvg aggregation depends on.
	for _, m := range allMethods(t) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			dict := nn.StateDict(m.Global())
			if len(dict) == 0 {
				t.Fatal("empty state dict")
			}
			if err := nn.LoadStateDict(m.Global(), dict); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllMethodsParamNamesUnique(t *testing.T) {
	for _, m := range allMethods(t) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			seen := make(map[string]bool)
			for _, p := range m.Global().Params() {
				if seen[p.Name] {
					t.Fatalf("duplicate param %q", p.Name)
				}
				seen[p.Name] = true
			}
		})
	}
}

func TestLwFTeacherSnapshot(t *testing.T) {
	alg, err := NewFedLwF(testModelCfg(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.OnTaskStart(0); err != nil {
		t.Fatal(err)
	}
	reg := alg.reg.(*lwf)
	if reg.teacher != nil {
		t.Fatal("task 0 must not snapshot a teacher")
	}
	if err := alg.OnTaskStart(1); err != nil {
		t.Fatal(err)
	}
	if reg.teacher == nil {
		t.Fatal("task 1 must snapshot a teacher")
	}
	// Nothing differentiates the teacher, here or on a worker that loads it
	// from the wire: its parameters are constants.
	payload, err := alg.EncodeWireState()
	if err != nil {
		t.Fatal(err)
	}
	worker, err := NewFedLwF(testModelCfg(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.LoadWireState(payload); err != nil {
		t.Fatal(err)
	}
	for _, teacher := range []*lwf{reg, worker.reg.(*lwf)} {
		for _, p := range teacher.teacher.Params() {
			if p.Value.RequiresGrad() {
				t.Fatalf("teacher parameter %s requires grad", p.Name)
			}
		}
	}
	// Teacher must be frozen in time: training the student must not move it.
	before := nn.StateDict(reg.teacher)
	if _, err := alg.LocalTrain(localCtx(t, 1, fl.GroupNew)); err != nil {
		t.Fatal(err)
	}
	after := nn.StateDict(reg.teacher)
	for k := range before {
		if !before[k].AllClose(after[k], 0) {
			t.Fatalf("teacher entry %q moved during student training", k)
		}
	}
}

func TestEWCConsolidation(t *testing.T) {
	alg, err := NewFedEWC(testModelCfg(), rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	reg := alg.reg.(*ewc)
	if reg.fisher != nil {
		t.Fatal("fresh EWC must have no Fisher")
	}
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	sample, _, err := family.Generate("photo", 28, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.OnTaskEnd(0, sample); err != nil {
		t.Fatal(err)
	}
	if reg.fisher == nil {
		t.Fatal("OnTaskEnd must build Fisher information")
	}
	// Fisher entries must be non-negative and not all zero.
	total := 0.0
	for name, f := range reg.fisher {
		for _, v := range f.Data() {
			if v < 0 {
				t.Fatalf("negative Fisher value in %q", name)
			}
			total += v
		}
	}
	if total == 0 {
		t.Fatal("Fisher is identically zero")
	}
	// Online consolidation: a second task adds importance.
	firstTotal := total
	if err := alg.OnTaskEnd(1, sample); err != nil {
		t.Fatal(err)
	}
	total = 0.0
	for _, f := range reg.fisher {
		for _, v := range f.Data() {
			total += v
		}
	}
	if total <= firstTotal {
		t.Fatal("consolidation did not accumulate importance")
	}
}

func TestEWCPenaltyAnchorsWeights(t *testing.T) {
	// After consolidation, training with a huge lambda must keep weights
	// closer to the anchor than training without the penalty.
	run := func(lambda float64) float64 {
		alg, err := NewFedEWC(testModelCfg(), rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		alg.reg.(*ewc).lambda = lambda
		family, err := data.NewFamily("pacs", 16)
		if err != nil {
			t.Fatal(err)
		}
		sample, _, err := family.Generate("photo", 28, 7, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.OnTaskEnd(0, sample); err != nil {
			t.Fatal(err)
		}
		anchor := make(map[string]*tensor.Tensor)
		for _, p := range alg.backbone.Params() {
			anchor[p.Name] = p.Value.T.Clone()
		}
		if _, err := alg.LocalTrain(localCtx(t, 1, fl.GroupNew)); err != nil {
			t.Fatal(err)
		}
		drift := 0.0
		for _, p := range alg.backbone.Params() {
			diff := tensor.Sub(p.Value.T, anchor[p.Name])
			drift += diff.L2Norm()
		}
		return drift
	}
	free := run(0)
	anchored := run(1e5)
	if anchored >= free {
		t.Fatalf("EWC penalty did not reduce drift: %v vs %v", anchored, free)
	}
}

func TestL2PPoolSelectionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pool, err := newPromptPool("p", rng, 6, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	queries := tensor.RandN(rng, 1, 4, 8)
	selected := pool.selectTop(queries, 2)
	if len(selected) != 4 {
		t.Fatalf("selected %d rows, want 4", len(selected))
	}
	for _, ids := range selected {
		if len(ids) != 2 {
			t.Fatalf("selected %d slots, want 2", len(ids))
		}
		if ids[0] == ids[1] {
			t.Fatal("top-2 selection repeated a slot")
		}
	}
	prompts, keysSel := pool.gather(selected)
	if prompts.T.Dim(0) != 4 || prompts.T.Dim(1) != 6 || prompts.T.Dim(2) != 8 {
		t.Fatalf("gathered prompts shape %v", prompts.T.Shape())
	}
	if keysSel.T.Dim(0) != 8 {
		t.Fatalf("gathered keys rows %d, want 8", keysSel.T.Dim(0))
	}
}

func TestL2PTopNClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pool, err := newPromptPool("p", rng, 2, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	queries := tensor.RandN(rng, 1, 1, 8)
	selected := pool.selectTop(queries, 5)
	if len(selected[0]) != 2 {
		t.Fatalf("topN must clamp to pool size, got %d", len(selected[0]))
	}
}

func TestL2PSelectionPrefersAlignedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pool, err := newPromptPool("p", rng, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Make key 1 perfectly aligned with the query.
	q := []float64{1, 0, 0, 0}
	for s := 0; s < 3; s++ {
		row := pool.keys.T.Data()[s*4 : (s+1)*4]
		for i := range row {
			row[i] = 0
		}
		if s == 1 {
			copy(row, q)
		} else {
			row[1+s] = 1
		}
	}
	queries := tensor.FromSlice(append([]float64(nil), q...), 1, 4)
	selected := pool.selectTop(queries, 1)
	if selected[0][0] != 1 {
		t.Fatalf("selected slot %d, want 1 (aligned key)", selected[0][0])
	}
}

func TestKeyPullLossDecreasesWithAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pool, err := newPromptPool("p", rng, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries := tensor.FromSlice([]float64{1, 0, 0, 0}, 1, 4)
	selected := [][]int{{0}}
	// Misaligned key.
	copy(pool.keys.T.Data()[0:4], []float64{0, 1, 0, 0})
	_, keysSel := pool.gather(selected)
	lossMis, err := pool.keyPullLoss(keysSel, queries, selected)
	if err != nil {
		t.Fatal(err)
	}
	// Aligned key.
	copy(pool.keys.T.Data()[0:4], []float64{1, 0, 0, 0})
	_, keysSel2 := pool.gather(selected)
	lossAligned, err := pool.keyPullLoss(keysSel2, queries, selected)
	if err != nil {
		t.Fatal(err)
	}
	if lossAligned.T.Item() >= lossMis.T.Item() {
		t.Fatalf("aligned pull loss %v should be below misaligned %v",
			lossAligned.T.Item(), lossMis.T.Item())
	}
}

func TestDualPromptTaskCapacity(t *testing.T) {
	dp, err := NewFedDualPrompt(testModelCfg(), 2, false, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.OnTaskStart(2); err == nil {
		t.Fatal("task beyond expert capacity must error")
	}
	// Pool variant has no task capacity limit.
	dpPool, err := NewFedDualPrompt(testModelCfg(), 2, true, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dpPool.OnTaskStart(5); err != nil {
		t.Fatal(err)
	}
}

func TestDualPromptUsesTaskExpertDuringTraining(t *testing.T) {
	dp, err := NewFedDualPrompt(testModelCfg(), 4, false, rand.New(rand.NewSource(18)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 3, 16, 16))
	tokens, err := dp.backbone.Tokens(&nn.Ctx{Train: true}, x)
	if err != nil {
		t.Fatal(err)
	}
	// Training with explicit task ids must error on out-of-range ids.
	if _, _, err := dp.prompts.promptsFor(tokens, []int{0, 9}); err == nil {
		t.Fatal("out-of-range task id must error")
	}
	prompts, pull, err := dp.prompts.promptsFor(tokens, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	// General (2) + Expert (3) tokens.
	if prompts.T.Dim(1) != 5 {
		t.Fatalf("prompt tokens = %d, want 5", prompts.T.Dim(1))
	}
	if pull == nil {
		t.Fatal("training must produce a key-pull loss")
	}
}

func TestBaselineLearnsToyTask(t *testing.T) {
	// Finetune must fit a single domain well above chance: the floor all
	// table comparisons rest on.
	if testing.Short() {
		t.Skip("integration test")
	}
	ft, err := NewFinetune(testModelCfg(), rand.New(rand.NewSource(20)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(fl.Config{
		Rounds: 3, Epochs: 2, BatchSize: 8, LR: 0.05,
		InitialClients: 3, SelectPerRound: 3, ClientsPerTaskInc: 0,
		TransferFrac: 0.8, Alpha: 0,
		TrainPerDomain: 84, TestPerDomain: 28, EvalBatch: 14,
		Seed: 7,
	}, ft, nil)
	if err != nil {
		t.Fatal(err)
	}
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, family.Domains[:1])
	if err != nil {
		t.Fatal(err)
	}
	if mat.A[0][0] < 0.3 {
		t.Fatalf("Finetune accuracy %v too low on one domain", mat.A[0][0])
	}
}
