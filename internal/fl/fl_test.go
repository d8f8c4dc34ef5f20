package fl

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

func TestWeightedAverage(t *testing.T) {
	d1 := map[string]*tensor.Tensor{"w": tensor.FromSlice([]float64{1, 2}, 2)}
	d2 := map[string]*tensor.Tensor{"w": tensor.FromSlice([]float64{3, 6}, 2)}
	avg, err := weightedAverage([]map[string]*tensor.Tensor{d1, d2}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.FromSlice([]float64{2.5, 5}, 2)
	if !avg["w"].AllClose(want, 1e-12) {
		t.Fatalf("avg = %v, want %v", avg["w"], want)
	}
}

func TestWeightedAverageIdentityOnEqualDicts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := map[string]*tensor.Tensor{
		"a": tensor.RandN(rng, 1, 3, 2),
		"b": tensor.RandN(rng, 1, 4),
	}
	clone := func() map[string]*tensor.Tensor {
		out := make(map[string]*tensor.Tensor)
		for k, v := range base {
			out[k] = v.Clone()
		}
		return out
	}
	avg, err := weightedAverage([]map[string]*tensor.Tensor{clone(), clone(), clone()}, []float64{1, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range base {
		if !avg[k].AllClose(v, 1e-12) {
			t.Fatalf("averaging identical dicts changed entry %q", k)
		}
	}
}

// TestWeightedAverageShardedMatchesSerial pins the fold's bit-identity
// contract: weightedAverage must yield exactly (==, not within a tolerance)
// the plain per-key accumulation below, over a many-key dict.
func TestWeightedAverageShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const clients, keys = 7, 64
	dicts := make([]map[string]*tensor.Tensor, clients)
	weights := make([]float64, clients)
	for c := range dicts {
		d := make(map[string]*tensor.Tensor, keys)
		for k := 0; k < keys; k++ {
			d[fmt.Sprintf("layer%02d.w", k)] = tensor.RandN(rng, 1, 5, 3)
		}
		dicts[c] = d
		weights[c] = 0.5 + rng.Float64()
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	want := make(map[string]*tensor.Tensor, keys)
	for name, first := range dicts[0] {
		acc := tensor.New(first.Shape()...)
		for c, d := range dicts {
			acc.AddScaledInPlace(weights[c], d[name])
		}
		acc.ScaleInPlace(1 / total)
		want[name] = acc
	}
	got, err := weightedAverage(dicts, weights)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sharded average has %d entries, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		for i, v := range w.Data() {
			if g.Data()[i] != v {
				t.Fatalf("entry %q diverged at element %d: %v vs %v", name, i, g.Data()[i], v)
			}
		}
	}
}

func TestWeightedAverageErrors(t *testing.T) {
	d := map[string]*tensor.Tensor{"w": tensor.Ones(2)}
	if _, err := weightedAverage(nil, nil); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := weightedAverage([]map[string]*tensor.Tensor{d}, []float64{1, 2}); err == nil {
		t.Fatal("weight count mismatch must error")
	}
	if _, err := weightedAverage([]map[string]*tensor.Tensor{d}, []float64{0}); err == nil {
		t.Fatal("zero weight must error")
	}
	d2 := map[string]*tensor.Tensor{"v": tensor.Ones(2)}
	if _, err := weightedAverage([]map[string]*tensor.Tensor{d, d2}, []float64{1, 1}); err == nil {
		t.Fatal("key mismatch must error")
	}
	d3 := map[string]*tensor.Tensor{"w": tensor.Ones(3)}
	if _, err := weightedAverage([]map[string]*tensor.Tensor{d, d3}, []float64{1, 1}); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

// fakeStats aggregates observations across a fake algorithm and all of its
// Spawn replicas. Replicas may train concurrently, so access is locked.
type fakeStats struct {
	mu         sync.Mutex
	trainCalls int
	taskStarts []int
	taskEnds   []int
	rounds     int
	uploads    []int
	groupsSeen map[Group]int
}

// fakeAlg is a minimal Algorithm for engine-mechanics tests: a single
// scalar parameter that local training increments by 1, and predictions
// that are always class 0. Replicas share the parent's stats recorder.
type fakeAlg struct {
	w     *autograd.Value
	stats *fakeStats
}

func newFakeAlg() *fakeAlg {
	return &fakeAlg{
		w:     autograd.Param(tensor.New(1)),
		stats: &fakeStats{groupsSeen: make(map[Group]int)},
	}
}

func (f *fakeAlg) Name() string { return "fake" }

func (f *fakeAlg) Global() nn.Module { return f }

func (f *fakeAlg) Params() []nn.Param { return []nn.Param{{Name: "w", Value: f.w}} }

func (f *fakeAlg) Buffers() []nn.Buffer { return nil }

func (f *fakeAlg) Spawn() (Algorithm, error) {
	return &fakeAlg{w: f.w.CloneLeaf(), stats: f.stats}, nil
}

func (f *fakeAlg) OnTaskStart(task int) error {
	f.stats.taskStarts = append(f.stats.taskStarts, task)
	return nil
}

func (f *fakeAlg) OnTaskEnd(task int, sample *data.Dataset) error {
	f.stats.taskEnds = append(f.stats.taskEnds, task)
	return nil
}

func (f *fakeAlg) LocalTrain(ctx *LocalContext) (Upload, error) {
	f.stats.mu.Lock()
	f.stats.trainCalls++
	f.stats.groupsSeen[ctx.Group]++
	f.stats.mu.Unlock()
	f.w.T.Data()[0]++
	return ctx.ClientID, nil
}

func (f *fakeAlg) ServerRound(task, round int, uploads []Upload) error {
	f.stats.rounds++
	for _, u := range uploads {
		id, ok := u.(int)
		if !ok {
			return fmt.Errorf("unexpected upload type %T", u)
		}
		f.stats.uploads = append(f.stats.uploads, id)
	}
	return nil
}

func (f *fakeAlg) Predict(x *tensor.Tensor) ([]int, error) {
	return make([]int, x.Dim(0)), nil
}

var _ Algorithm = (*fakeAlg)(nil)

func smallConfig() Config {
	return Config{
		Rounds:            2,
		Epochs:            1,
		BatchSize:         8,
		LR:                0.05,
		InitialClients:    6,
		SelectPerRound:    3,
		ClientsPerTaskInc: 2,
		TransferFrac:      0.8,
		Alpha:             0.5,
		TrainPerDomain:    60,
		TestPerDomain:     20,
		EvalBatch:         10,
		Seed:              42,
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"rounds", func(c *Config) { c.Rounds = 0 }},
		{"epochs", func(c *Config) { c.Epochs = 0 }},
		{"batch", func(c *Config) { c.BatchSize = 0 }},
		{"lr", func(c *Config) { c.LR = 0 }},
		{"clients", func(c *Config) { c.InitialClients = 0 }},
		{"select", func(c *Config) { c.SelectPerRound = 0 }},
		{"transfer", func(c *Config) { c.TransferFrac = 1.5 }},
		{"alpha", func(c *Config) { c.Alpha = -1 }},
		{"dropout", func(c *Config) { c.DropoutProb = 1 }},
		{"workers", func(c *Config) { c.Workers = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestEngineRunMechanics(t *testing.T) {
	family, err := data.NewFamily("officecaltech10", 16)
	if err != nil {
		t.Fatal(err)
	}
	alg := newFakeAlg()
	eng, err := NewEngineWithRunner(smallConfig(), alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:3]
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	// Hooks fired once per task, in order.
	if len(alg.stats.taskStarts) != 3 || len(alg.stats.taskEnds) != 3 {
		t.Fatalf("task hooks: starts=%v ends=%v", alg.stats.taskStarts, alg.stats.taskEnds)
	}
	// Server rounds: Rounds per task unless every client dropped (no
	// dropout configured).
	if alg.stats.rounds != 2*3 {
		t.Fatalf("server rounds = %d, want 6", alg.stats.rounds)
	}
	// Pool grows by ClientsPerTaskInc per new task.
	if got := len(eng.clients); got != 6+2*2 {
		t.Fatalf("pool size = %d, want 10", got)
	}
	// Matrix is complete.
	if _, err := mat.Summarize(); err != nil {
		t.Fatal(err)
	}
}

// clientGroups counts the engine's Old, In-between and New clients.
func clientGroups(e *Engine) (old, between, new int) {
	for _, c := range e.clients {
		switch c.group {
		case GroupOld:
			old++
		case GroupInBetween:
			between++
		case GroupNew:
			new++
		}
	}
	return old, between, new
}

func TestEngineClientGroups(t *testing.T) {
	family, err := data.NewFamily("officecaltech10", 16)
	if err != nil {
		t.Fatal(err)
	}
	alg := newFakeAlg()
	eng, err := NewEngineWithRunner(smallConfig(), alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(family, family.Domains[:2]); err != nil {
		t.Fatal(err)
	}
	old, between, newC := clientGroups(eng)
	// After task 1: 80% of 6 = 4 transitioned (Ub), 2 stayed (Uo),
	// 2 joined (Un).
	if old != 2 || between != 4 || newC != 2 {
		t.Fatalf("groups Uo=%d Ub=%d Un=%d, want 2/4/2", old, between, newC)
	}
	// All three groups must have been seen in training.
	if alg.stats.groupsSeen[GroupNew] == 0 {
		t.Fatal("no New-group client ever trained")
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (float64, int) {
		alg := newFakeAlg()
		eng, err := NewEngineWithRunner(smallConfig(), alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(family, family.Domains[:2]); err != nil {
			t.Fatal(err)
		}
		return alg.w.T.At(0), alg.stats.trainCalls
	}
	w1, c1 := run()
	w2, c2 := run()
	if w1 != w2 || c1 != c2 {
		t.Fatalf("non-deterministic engine: (%v,%d) vs (%v,%d)", w1, c1, w2, c2)
	}
}

// TestEngineWorkersMatchSequential drives the engine mechanics (selection,
// dropout, replica spawning, aggregation order) at several worker counts
// and requires identical outcomes: same aggregated weight, same training
// calls, same upload stream. Real-model equivalence is covered by the
// heavier determinism test in engine_parallel_test.go.
func TestEngineWorkersMatchSequential(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int, dropout float64) (float64, int, []int) {
		cfg := smallConfig()
		cfg.Rounds = 3
		cfg.Workers = workers
		cfg.DropoutProb = dropout
		alg := newFakeAlg()
		eng, err := NewEngineWithRunner(cfg, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(family, family.Domains[:2]); err != nil {
			t.Fatal(err)
		}
		return alg.w.T.At(0), alg.stats.trainCalls, alg.stats.uploads
	}
	for _, dropout := range []float64{0, 0.3} {
		w1, c1, u1 := run(1, dropout)
		for _, workers := range []int{2, 4, 0} {
			w, c, u := run(workers, dropout)
			if w != w1 || c != c1 {
				t.Fatalf("dropout=%v workers=%d: (w=%v calls=%d) vs sequential (w=%v calls=%d)",
					dropout, workers, w, c, w1, c1)
			}
			if len(u) != len(u1) {
				t.Fatalf("dropout=%v workers=%d: %d uploads vs %d sequential", dropout, workers, len(u), len(u1))
			}
			for i := range u {
				if u[i] != u1[i] {
					t.Fatalf("dropout=%v workers=%d: upload order %v vs sequential %v", dropout, workers, u, u1)
				}
			}
		}
	}
}

// TestSpawnReplicaIsIsolated checks the clone contract directly: training a
// replica must not move the parent's parameters.
func TestSpawnReplicaIsIsolated(t *testing.T) {
	parent := newFakeAlg()
	parent.w.T.Data()[0] = 7
	repAlg, err := parent.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	rep := repAlg.(*fakeAlg)
	if rep.w == parent.w || rep.w.T == parent.w.T {
		t.Fatal("replica shares the parent's parameter")
	}
	if rep.w.T.At(0) != 7 {
		t.Fatalf("replica starts at %v, want the parent's 7", rep.w.T.At(0))
	}
	rep.w.T.Data()[0] = 99
	if parent.w.T.At(0) != 7 {
		t.Fatal("training the replica mutated the parent")
	}
}

func TestEngineAggregationAveragesUpdates(t *testing.T) {
	// With the fake algorithm every client sets w = w_global + 1, so after
	// any round the FedAvg aggregate must be exactly w_global + 1.
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Rounds = 3
	alg := newFakeAlg()
	eng, err := NewEngineWithRunner(cfg, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(family, family.Domains[:1]); err != nil {
		t.Fatal(err)
	}
	if got := alg.w.T.At(0); math.Abs(got-3) > 1e-9 {
		t.Fatalf("global after 3 rounds = %v, want 3", got)
	}
}

func TestEngineDropoutSkipsClients(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.DropoutProb = 0.5
	cfg.Rounds = 4
	alg := newFakeAlg()
	eng, err := NewEngineWithRunner(cfg, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(family, family.Domains[:1]); err != nil {
		t.Fatal(err)
	}
	max := cfg.Rounds * cfg.SelectPerRound
	if alg.stats.trainCalls >= max {
		t.Fatalf("dropout never skipped a client: %d calls of max %d", alg.stats.trainCalls, max)
	}
	if alg.stats.trainCalls == 0 {
		t.Fatal("dropout skipped every client at p=0.5")
	}
}

// strictRunner is an EachRunner that refuses an empty job list.
type strictRunner struct{ LocalRunner }

func (s *strictRunner) RunEach(jobs []Job, done func(int, Result) error) error {
	if len(jobs) == 0 {
		return fmt.Errorf("runner called with no jobs")
	}
	return s.LocalRunner.RunEach(jobs, done)
}

// TestEngineEmptyRoundLeavesGlobalUntouched: a round whose every selected
// client dropped out never reaches the runner, installs nothing and skips
// the server hook.
func TestEngineEmptyRoundLeavesGlobalUntouched(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.DropoutProb = 1 - 1e-12
	alg := newFakeAlg()
	eng, err := NewEngineWithRunner(cfg, alg, &strictRunner{LocalRunner{Alg: alg, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(family, family.Domains[:1]); err != nil {
		t.Fatal(err)
	}
	if alg.stats.trainCalls != 0 || alg.stats.rounds != 0 || alg.w.T.At(0) != 0 {
		t.Fatalf("empty rounds trained %d clients, ran %d server rounds, moved w to %v",
			alg.stats.trainCalls, alg.stats.rounds, alg.w.T.At(0))
	}
}

// recordingAlg extends fakeAlg to capture the datasets clients trained on.
// The context log is shared across Spawn replicas under a lock, mirroring
// how real methods share read-only server state.
type recordingAlg struct {
	fakeAlg
	rec *contextLog
}

type contextLog struct {
	mu       sync.Mutex
	contexts []capturedCtx
}

type capturedCtx struct {
	group      Group
	clientTask int
	task       int
	size       int
	tasksSeen  map[int]bool
}

func newRecordingAlg() *recordingAlg {
	return &recordingAlg{fakeAlg: *newFakeAlg(), rec: &contextLog{}}
}

func (r *recordingAlg) Spawn() (Algorithm, error) {
	base, err := r.fakeAlg.Spawn()
	if err != nil {
		return nil, err
	}
	return &recordingAlg{fakeAlg: *base.(*fakeAlg), rec: r.rec}, nil
}

func (r *recordingAlg) LocalTrain(ctx *LocalContext) (Upload, error) {
	seen := make(map[int]bool)
	for _, ex := range ctx.Data.Examples {
		seen[ex.Task] = true
	}
	r.rec.mu.Lock()
	r.rec.contexts = append(r.rec.contexts, capturedCtx{
		group:      ctx.Group,
		clientTask: ctx.ClientTask,
		task:       ctx.Task,
		size:       ctx.Data.Len(),
		tasksSeen:  seen,
	})
	r.rec.mu.Unlock()
	return r.fakeAlg.LocalTrain(ctx)
}

func TestInBetweenClientsSeeBothTasks(t *testing.T) {
	family, err := data.NewFamily("officecaltech10", 16)
	if err != nil {
		t.Fatal(err)
	}
	alg := newRecordingAlg()
	cfg := smallConfig()
	cfg.Rounds = 4
	cfg.SelectPerRound = 6
	eng, err := NewEngineWithRunner(cfg, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(family, family.Domains[:2]); err != nil {
		t.Fatal(err)
	}
	sawBetween := false
	for _, c := range alg.rec.contexts {
		switch c.group {
		case GroupInBetween:
			sawBetween = true
			if !c.tasksSeen[0] || !c.tasksSeen[1] {
				t.Fatalf("In-between client data covers tasks %v, want both 0 and 1", c.tasksSeen)
			}
		case GroupNew:
			if c.tasksSeen[c.clientTask] != true || len(c.tasksSeen) != 1 {
				t.Fatalf("New client data covers tasks %v, want only %d", c.tasksSeen, c.clientTask)
			}
		case GroupOld:
			if c.clientTask >= c.task {
				t.Fatal("Old client must lag behind the current task")
			}
			if len(c.tasksSeen) != 1 || !c.tasksSeen[c.clientTask] {
				t.Fatalf("Old client data covers tasks %v, want only %d", c.tasksSeen, c.clientTask)
			}
		}
	}
	if !sawBetween {
		t.Fatal("no In-between client was ever selected at 80% transfer with 6 of 8 selected")
	}
}

func TestEngineTaskTagsMatchShards(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	alg := newRecordingAlg()
	eng, err := NewEngineWithRunner(smallConfig(), alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(family, family.Domains[:3]); err != nil {
		t.Fatal(err)
	}
	for _, c := range alg.rec.contexts {
		for task := range c.tasksSeen {
			if task < 0 || task > c.task {
				t.Fatalf("client saw data tagged task %d during stage %d", task, c.task)
			}
		}
	}
	// The job builder keeps one partition per task, however many clients
	// hold a slot of it.
	if n := len(eng.parts.byTask); n != 3 {
		t.Fatalf("%d cached partitions after a 3-task run, want one per task", n)
	}
}

func TestEngineRejectsEmptyDomains(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWithRunner(smallConfig(), newFakeAlg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(family, nil); err == nil {
		t.Fatal("empty domain list must error")
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngineWithRunner(Config{}, newFakeAlg(), nil); err == nil {
		t.Fatal("invalid config must error")
	}
	if _, err := NewEngineWithRunner(smallConfig(), nil, nil); err == nil {
		t.Fatal("nil algorithm must error")
	}
}

func TestGroupString(t *testing.T) {
	if GroupOld.String() != "Uo" || GroupInBetween.String() != "Ub" || GroupNew.String() != "Un" {
		t.Fatal("group names changed")
	}
	if Group(0).String() == "" {
		t.Fatal("unknown group must still render")
	}
}

// TestWeightedAverageUnanimousKeyExact pins the unanimity short-circuit:
// a key on which every client agrees bit for bit aggregates to exactly that
// value (no floating-point drift from the normalized-weight accumulation),
// while keys with any disagreement still take the accumulation path. The
// bit-stability of unanimous keys is what lets the delta wire codec skip
// frozen parameters round over round.
func TestWeightedAverageUnanimousKeyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frozen := tensor.RandN(rng, 1, 4, 3)
	const clients = 3
	dicts := make([]map[string]*tensor.Tensor, clients)
	weights := make([]float64, clients)
	for c := range dicts {
		trained := tensor.RandN(rng, 1, 4, 3)
		dicts[c] = map[string]*tensor.Tensor{
			"frozen":  frozen.Clone(),
			"trained": trained,
		}
		weights[c] = 0.3 + rng.Float64() // sums to something ≠ 1
	}
	got, err := weightedAverage(dicts, weights)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range frozen.Data() {
		if got["frozen"].Data()[i] != v {
			t.Fatalf("unanimous key drifted at element %d: %v vs %v", i, got["frozen"].Data()[i], v)
		}
	}
	if got["frozen"] != dicts[0]["frozen"] {
		t.Fatal("unanimous key must be the first client's own tensor, not a copy")
	}
	// The trained key must genuinely be averaged, not copied from client 0.
	same := true
	for i, v := range dicts[0]["trained"].Data() {
		if got["trained"].Data()[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("non-unanimous key was copied instead of averaged")
	}
}
