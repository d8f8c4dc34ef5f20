package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// stepRig is a RefFiL replica on the paper path — model.DefaultConfig, B=8,
// the prompt bank populated so L_CE, L_GPL and L_DPCL all run — whose local
// updates draw from one arena, as a LocalRunner worker slot's do.
type stepRig struct {
	r     *RefFiL
	train *data.Dataset
	arena tensor.Arena
	seed  int64
}

func newStepRig(tb testing.TB) *stepRig {
	tb.Helper()
	r, err := New(DefaultConfig(7, 4), rand.New(rand.NewSource(21)))
	if err != nil {
		tb.Fatal(err)
	}
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		tb.Fatal(err)
	}
	train, _, err := family.Generate(family.Domains[0], 128, 7, 3)
	if err != nil {
		tb.Fatal(err)
	}
	train.SetTask(0)
	if err := r.OnTaskStart(0); err != nil {
		tb.Fatal(err)
	}
	s := &stepRig{r: r, train: train}
	// One update and a server round fill the bank.
	if err := r.ServerRound(0, 0, []fl.Upload{s.update(tb, 16)}); err != nil {
		tb.Fatal(err)
	}
	if r.Bank().Empty() {
		tb.Fatal("bank still empty")
	}
	return s
}

// update runs one client update over the first n examples: ⌈n/8⌉ optimiser
// steps, the last on the n%8 tail.
func (s *stepRig) update(tb testing.TB, n int) fl.Upload {
	tb.Helper()
	rep, err := s.r.Spawn()
	if err != nil {
		tb.Fatal(err)
	}
	s.seed++
	up, err := rep.LocalTrain(&fl.LocalContext{
		Group:     fl.GroupNew,
		Data:      &data.Dataset{Name: "prefix", Examples: s.train.Examples[:n]},
		Epochs:    1,
		BatchSize: 8,
		LR:        0.02,
		Rng:       rand.New(rand.NewSource(s.seed)),
		Arena:     &s.arena,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return up
}

// allocated returns the bytes and the heap objects f allocates, by
// MemStats.TotalAlloc and Mallocs.
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestLocalTrainStepAllocation is the allocation gate of the paper path: once
// the arena is warm, a further optimiser step allocates only what the arena
// does not hold — the collated minibatch, L_DPCL's positive sets, a row of
// the prototype accumulator, a heap leaf over the tokenizer's positional
// table — about 1 KB in 8 objects, where the heap-allocated step took
// 17 MB, 811 objects before tape nodes and view headers came from the
// arena, and 225 while every op's backward was a closure. The object gate
// is that count plus 25 %.
func TestLocalTrainStepAllocation(t *testing.T) {
	s := newStepRig(t)
	s.update(t, 16) // two warm-up steps
	const short, long = 2, 12
	aBytes, aObjects := allocated(func() { s.update(t, 8*short) })
	bBytes, bObjects := allocated(func() { s.update(t, 8*long) })
	perStep := float64(bBytes-aBytes) / (long - short)
	objects := float64(bObjects-aObjects) / (long - short)
	t.Logf("%.0f KB and %.0f objects per further step; arena holds %.1f MB",
		perStep/1024, objects, float64(s.arena.Retained())/(1<<20))
	if perStep > 1.5*(1<<20) {
		t.Errorf("a warm training step allocates %.2f MB, want at most 1.5 MB", perStep/(1<<20))
	}
	if objects > 10 {
		t.Errorf("a warm training step allocates %.0f objects, want at most 10", objects)
	}
}

// TestArenaRetentionAcrossTailBatches: quantity-shift shards give nearly
// every update a different tail-batch size. The arena must serve those from
// the buffers of the full batch, not hoard one step footprint per size.
func TestArenaRetentionAcrossTailBatches(t *testing.T) {
	s := newStepRig(t)
	s.arena = tensor.Arena{} // the rig's set-up update already warmed it
	s.update(t, 8)
	first := s.arena.Retained()
	for i := 0; i < 10; i++ {
		s.update(t, 16+1+i%7)
	}
	after := s.arena.Retained()
	t.Logf("arena holds %.1f MB after the first full-batch step, %.1f MB after ten updates with tails 1…7",
		float64(first)/(1<<20), float64(after)/(1<<20))
	if float64(after) > 1.5*float64(first) {
		t.Errorf("arena grew from %d to %d bytes over tail batches, want at most 1.5×", first, after)
	}
}

// BenchmarkLocalTrainStep reports B/op and allocs/op of one warm optimiser
// step (one full-batch client update per iteration).
func BenchmarkLocalTrainStep(b *testing.B) {
	s := newStepRig(b)
	s.update(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.update(b, 8)
	}
}

// slotSpy wraps an algorithm and the replicas it spawns; it counts the
// Spawns, and each replica's LocalTrain records the job arena it was lent
// and its parameters, so a test can look at a LocalRunner job from outside.
type slotSpy struct {
	fl.Algorithm
	seen *slotSeen
}

type slotSeen struct {
	spawns   int
	jobArena *tensor.Arena
	params   []nn.Param
}

func (s *slotSpy) Spawn() (fl.Algorithm, error) {
	s.seen.spawns++
	rep, err := s.Algorithm.Spawn()
	return &slotSpy{Algorithm: rep, seen: s.seen}, err
}

func (s *slotSpy) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	s.seen.jobArena = ctx.JobArena
	up, err := s.Algorithm.LocalTrain(ctx)
	s.seen.params = s.Global().Params()
	return up, err
}

// warmRunner is a LocalRunner{Workers: 1} over the rig's RefFiL, spied on,
// and a job that trains one client update of one step on it, releasing the
// result in done as the engine does.
func warmRunner(s *stepRig) (*slotSeen, func() error) {
	spy := &slotSeen{}
	lr := &fl.LocalRunner{Alg: &slotSpy{Algorithm: s.r, seen: spy}, Workers: 1}
	return spy, func() error {
		s.seed++
		ctx := &fl.LocalContext{
			Group:     fl.GroupNew,
			Data:      &data.Dataset{Name: "prefix", Examples: s.train.Examples[:8]},
			Epochs:    1,
			BatchSize: 8,
			LR:        0.02,
			Rng:       rand.New(rand.NewSource(s.seed)),
		}
		return lr.RunEach([]fl.Job{{Ctx: ctx, Weight: 8}}, func(_ int, res fl.Result) error {
			res.Release()
			return nil
		})
	}
}

// TestWarmSlotGradsAndVelocitiesAllocateNothing is the allocation gate of a
// LocalRunner slot: the second of two RefFiL jobs run back to back on one
// slot draws every gradient and velocity from the slot's warm job arena,
// which does not grow. The job trains the pooled replica, so no weights are
// copied, and it allocates less than one model-size copy of its gradients
// (236 KB): about 90 KB. With gradients and velocities drawn from the heap
// it allocated 640 KB, beside a 270 KB replica Spawn deep-copied per job.
func TestWarmSlotGradsAndVelocitiesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newStepRig(t)
	spy, job := warmRunner(s)
	if err := job(); err != nil {
		t.Fatal(err)
	}
	cold := spy.jobArena.Retained()
	var err error
	bytes, _ := allocated(func() { err = job() })
	if err != nil {
		t.Fatal(err)
	}
	gradBytes := 0
	for _, p := range spy.params {
		if p.Value.Grad == nil {
			continue
		}
		if !p.Value.Grad.DrawnFrom(spy.jobArena) {
			t.Errorf("parameter %s: the warm job's gradient is not a draw of the slot's job arena", p.Name)
		}
		gradBytes += 8 * p.Value.Grad.Size()
	}
	t.Logf("warm job: %.0f KB; gradients %.0f KB; job arena %.0f KB",
		float64(bytes)/1024, float64(gradBytes)/1024, float64(spy.jobArena.Retained())/1024)
	if spy.jobArena.Retained() != cold {
		t.Errorf("the warm job grew the job arena from %d to %d bytes", cold, spy.jobArena.Retained())
	}
	if gradBytes == 0 {
		t.Fatal("the job left no parameter with a gradient")
	}
	if int(bytes) >= gradBytes {
		t.Errorf("the warm job allocates %d bytes, want less than its %d bytes of gradients", bytes, gradBytes)
	}
}

// TestWarmRunnerReplicasAllocateNothing is the allocation gate of the
// runner's replica pool: on a warm LocalRunner whose results are released,
// a second RefFiL job calls Spawn zero times and trains the very tensors
// the first job's replica trained, so it makes no replica tensor: it
// allocates less than the replica's weights, which Spawn deep-copies.
func TestWarmRunnerReplicasAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newStepRig(t)
	spy, job := warmRunner(s)
	if err := job(); err != nil {
		t.Fatal(err)
	}
	first := make([]*tensor.Tensor, len(spy.params))
	for i, p := range spy.params {
		first[i] = p.Value.T
	}
	spawns := spy.spawns
	var err error
	bytes, _ := allocated(func() { err = job() })
	if err != nil {
		t.Fatal(err)
	}
	weights, _ := allocated(func() {
		if _, err := s.r.Spawn(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm job: %.0f KB; a Spawn: %.0f KB", float64(bytes)/1024, float64(weights)/1024)
	if n := spy.spawns - spawns; n != 0 {
		t.Errorf("the warm job called Spawn %d times, want 0", n)
	}
	if len(spy.params) != len(first) {
		t.Fatalf("the warm job trained %d parameters, the first %d", len(spy.params), len(first))
	}
	for i, p := range spy.params {
		if p.Value.T != first[i] {
			t.Errorf("parameter %s: the warm job trained another tensor than the first job's replica", p.Name)
		}
	}
	if bytes >= weights {
		t.Errorf("the warm job allocates %d bytes, want less than a replica's %d bytes of weights", bytes, weights)
	}
}

// TestPooledReplicaTrainsAsAFreshSpawn holds RefFiL to Algorithm's replica
// contract. A replica that a LocalRunner pooled at task 0, with an empty
// bank, and takes again after the parent's OnTaskStart(1) and a
// LoadWireState bringing another server's bank, must train bit for bit as a
// fresh Spawn of the parent does: the same weights and the same upload.
// Both changes are written outside Global(), so a replica that kept its own
// copy of the task counter or the bank would train against stale ones.
func TestPooledReplicaTrainsAsAFreshSpawn(t *testing.T) {
	cfg := DefaultConfig(7, 4)
	parent, err := New(cfg, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*data.Dataset, 2)
	for task := range shards {
		if shards[task], _, err = family.Generate(family.Domains[task], 16, 7, 3); err != nil {
			t.Fatal(err)
		}
		shards[task].SetTask(task)
	}
	ctx := func(task int) *fl.LocalContext {
		return &fl.LocalContext{
			Task: task, ClientTask: task, Group: fl.GroupNew, Data: shards[task],
			Epochs: 1, BatchSize: 8, LR: 0.02, Rng: rand.New(rand.NewSource(5)),
		}
	}
	spy := &slotSeen{}
	lr := &fl.LocalRunner{Alg: &slotSpy{Algorithm: parent, seen: spy}, Workers: 1}
	var (
		pooled   map[string]*tensor.Tensor
		pooledUp fl.Upload
	)
	run := func(task int) {
		t.Helper()
		err := lr.RunEach([]fl.Job{{Ctx: ctx(task), Weight: 1}}, func(_ int, res fl.Result) error {
			pooled = make(map[string]*tensor.Tensor, len(res.Dict))
			for name, v := range res.Dict {
				pooled[name] = v.Clone()
			}
			pooledUp = res.Upload
			res.Release()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := parent.OnTaskStart(0); err != nil {
		t.Fatal(err)
	}
	run(0)

	// Another server's state at task 1: a bank its client's prompts built.
	other, err := New(cfg, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.OnTaskStart(1); err != nil {
		t.Fatal(err)
	}
	otherUp, err := other.LocalTrain(ctx(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.ServerRound(1, 0, []fl.Upload{otherUp}); err != nil {
		t.Fatal(err)
	}
	state, err := other.EncodeWireState()
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.OnTaskStart(1); err != nil {
		t.Fatal(err)
	}
	if err := parent.LoadWireState(state); err != nil {
		t.Fatal(err)
	}
	if parent.Bank().Empty() {
		t.Fatal("the loaded bank is empty")
	}

	run(1)
	if spy.spawns != 1 {
		t.Fatalf("two jobs on one runner called Spawn %d times, want 1: the second must take the pooled replica", spy.spawns)
	}
	fresh, err := parent.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	freshUp, err := fresh.LocalTrain(ctx(1))
	if err != nil {
		t.Fatal(err)
	}
	want := nn.StateDict(fresh.Global())
	if len(pooled) != len(want) {
		t.Fatalf("the pooled replica's result holds %d tensors, a fresh Spawn's %d", len(pooled), len(want))
	}
	for name, w := range want {
		if !pooled[name].EqualBits(w) {
			t.Fatalf("%q: the pooled replica trained other bits than a fresh Spawn", name)
		}
	}
	if !reflect.DeepEqual(pooledUp, freshUp) {
		t.Fatal("the pooled replica uploaded other prompts than a fresh Spawn")
	}
}
