package fl

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// indexedDataset holds n one-element examples whose value is their index, so
// a batch's contents identify which examples it drew, in which order.
func indexedDataset(n int) *data.Dataset {
	ds := &data.Dataset{Name: "indexed"}
	for i := 0; i < n; i++ {
		ds.Examples = append(ds.Examples, data.Example{X: tensor.FromSlice([]float64{float64(i)}, 1), Y: i})
	}
	return ds
}

// TestLocalSGDLoop drives the shared loop on the toy quadratic 50·‖w‖²,
// whose gradient norm (100·‖w‖) sits far above the clip bound.
func TestLocalSGDLoop(t *testing.T) {
	const (
		n, batch, epochs = 7, 3, 2
		lr, clip         = 0.1, 0.5
		seed             = 5
	)
	w := autograd.Param(tensor.FromSlice([]float64{3, -4, 12}, 3))
	params := []nn.Param{{Name: "w", Value: w}}
	ctx := &LocalContext{Data: indexedDataset(n), Epochs: epochs, BatchSize: batch, LR: lr, Rng: rand.New(rand.NewSource(seed))}

	// The batches the loop must see: data.Batches over a mirror of ctx.Rng,
	// once per epoch.
	var want []data.Batch
	mirror := rand.New(rand.NewSource(seed))
	for e := 0; e < epochs; e++ {
		bs, err := data.Batches(ctx.Data, batch, mirror)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, bs...)
	}
	if len(want) != epochs*3 { // ⌈7/3⌉ = 3
		t.Fatalf("reference has %d batches, want %d", len(want), epochs*3)
	}

	calls := 0
	var before *tensor.Tensor
	checkStep := func() {
		if before == nil {
			return
		}
		if step := tensor.Sub(w.T, before).L2Norm(); step > lr*clip*(1+1e-12) || step < lr*clip*(1-1e-12) {
			t.Errorf("call %d: step norm %v, want the clip bound lr·clip = %v", calls, step, lr*clip)
		}
	}
	err := ctx.SGD(params, 0, 0, clip, func(epoch int, b data.Batch) (*autograd.Value, error) {
		if calls >= len(want) {
			t.Fatalf("loss called more than %d times", len(want))
		}
		if epoch != calls/3 {
			t.Errorf("call %d: epoch %d, want %d", calls, epoch, calls/3)
		}
		if !b.X.EqualBits(want[calls].X) || !slices.Equal(b.Y, want[calls].Y) || !slices.Equal(b.Task, want[calls].Task) {
			t.Errorf("call %d: batch %v labels %v, data.Batches has %v labels %v",
				calls, b.X.Data(), b.Y, want[calls].X.Data(), want[calls].Y)
		}
		if w.Grad != nil && w.Grad.L2Norm() != 0 {
			t.Errorf("call %d: gradient %v not zeroed", calls, w.Grad.Data())
		}
		checkStep()
		before = w.T.Clone()
		calls++
		return autograd.Scale(autograd.Sum(autograd.Mul(w, w)), 50), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(want) {
		t.Fatalf("loss called %d times, want epochs × ⌈n/batch⌉ = %d", calls, len(want))
	}
	checkStep()
}

// TestLocalSGDStopsOnError: an error from the loss closure or from Backward
// ends the loop at that batch, before any update, and is returned.
func TestLocalSGDStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		fail func(w *autograd.Value) (*autograd.Value, error)
		is   error
	}{
		{"loss", func(*autograd.Value) (*autograd.Value, error) { return nil, boom }, boom},
		// A non-scalar root is Backward's error.
		{"backward", func(w *autograd.Value) (*autograd.Value, error) { return autograd.Mul(w, w), nil }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := autograd.Param(tensor.FromSlice([]float64{1, 2}, 2))
			ctx := &LocalContext{Data: indexedDataset(6), Epochs: 3, BatchSize: 2, LR: 0.1, Rng: rand.New(rand.NewSource(1))}
			calls := 0
			var atFailure *tensor.Tensor
			err := ctx.SGD([]nn.Param{{Name: "w", Value: w}}, Momentum, WeightDecay, ClipNorm,
				func(int, data.Batch) (*autograd.Value, error) {
					calls++
					if calls == 4 {
						atFailure = w.T.Clone()
						return tc.fail(w)
					}
					return autograd.Sum(autograd.Mul(w, w)), nil
				})
			if err == nil {
				t.Fatal("loop swallowed the error")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("returned %v, want %v", err, tc.is)
			}
			if calls != 4 {
				t.Fatalf("loss called %d times, want the loop to stop at call 4", calls)
			}
			if !w.T.EqualBits(atFailure) {
				t.Fatal("parameters moved after the failing batch")
			}
		})
	}
}

// TestLocalSGDStepsInTheArena: each batch reaches the loss collated into
// ctx.Arena — drawn from it, not wrapped — what the step draws there is taken
// back after its update — the next step's draw gets the same buffer — a
// failing step hands its tensors back too, and a second SGD call on the warm
// arena draws no new buffer, for its batches or anything else. A parameter's
// Grad and velocity are never step-arena draws: on the heap when no job
// arena is lent, and drawn from ctx.JobArena when one is, the parameter
// unbound from it on return and a warm job arena not growing either. Both
// ways train bit for bit as the heap does.
func TestLocalSGDStepsInTheArena(t *testing.T) {
	boom := errors.New("boom")
	w := autograd.Param(tensor.FromSlice([]float64{1, 2}, 2))
	params := []nn.Param{{Name: "w", Value: w}}
	arena := new(tensor.Arena)
	ctx := &LocalContext{Data: indexedDataset(6), Epochs: 2, BatchSize: 2, LR: 0.1, Rng: rand.New(rand.NewSource(1)), Arena: arena}
	drawn := map[*tensor.Tensor]int{}
	calls := 0
	err := ctx.SGD(params, Momentum, WeightDecay, ClipNorm,
		func(_ int, b data.Batch) (*autograd.Value, error) {
			if b.X.Arena() != arena {
				t.Errorf("call %d: the batch is not in ctx.Arena", calls)
			}
			// The batch is the step's first draw: a wrapped batch would
			// leave the fresh arena empty.
			if calls == 0 && arena.Retained() != 8*b.X.Size() {
				t.Errorf("the first batch left %d bytes in the arena, want its own %d", arena.Retained(), 8*b.X.Size())
			}
			calls++
			drawn[arena.New(1000)]++
			if calls == 5 {
				return nil, boom
			}
			loss := autograd.Sum(autograd.Mul(autograd.Mul(w, w), autograd.Constant(b.X.Reshape(2))))
			if loss.T.Arena() != arena {
				t.Errorf("call %d: the loss was not computed in ctx.Arena", calls)
			}
			return loss, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("returned %v, want %v", err, boom)
	}
	if len(drawn) != 1 || calls != 5 {
		t.Fatalf("%d steps drew %d distinct 1000-element tensors, want the one buffer reused by all 5", calls, len(drawn))
	}
	if w.Grad.Arena() != nil {
		t.Fatal("with no job arena lent, a parameter's gradient was drawn from an arena")
	}
	if again := arena.New(1000); drawn[again] == 0 {
		t.Fatal("the failing step's tensors were not handed back")
	}
	arena.Reset()

	// The same updates from the same weights, once on the heap alone and
	// once on the warm step arena with a job arena lent.
	heapW := autograd.Param(w.T.Clone())
	train := func(p *autograd.Value, step, job *tensor.Arena, seed int64) {
		t.Helper()
		ctx := &LocalContext{Data: indexedDataset(6), Epochs: 2, BatchSize: 2, LR: 0.1, Rng: rand.New(rand.NewSource(seed)), Arena: step, JobArena: job}
		err := ctx.SGD([]nn.Param{{Name: "w", Value: p}}, Momentum, WeightDecay, ClipNorm, func(_ int, b data.Batch) (*autograd.Value, error) {
			if step != nil && p.Grad != nil && p.Grad.Arena() == step {
				t.Error("a parameter's gradient was drawn from the step arena")
			}
			return autograd.Sum(autograd.Mul(autograd.Mul(p, p), autograd.Constant(b.X.Reshape(2)))), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	warm := arena.Retained()
	job := new(tensor.Arena)
	w.Grad = nil // a fresh replica's parameter: no Grad yet
	train(w, arena, job, 2)
	train(heapW, nil, nil, 2)
	if arena.Retained() != warm {
		t.Fatalf("a second SGD call grew the warm arena from %d to %d bytes", warm, arena.Retained())
	}
	if !w.Grad.DrawnFrom(job) {
		t.Fatal("with a job arena lent, the parameter's gradient was not drawn from it")
	}
	// Two elements of gradient and two of velocity: the velocity is the
	// job arena's only other draw.
	if job.Retained() != 8*(2+2) {
		t.Fatalf("the job arena holds %d bytes, want the gradient's and the velocity's %d", job.Retained(), 8*(2+2))
	}
	if !w.T.EqualBits(heapW.T) || !w.Grad.EqualBits(heapW.Grad) {
		t.Fatal("training from the arenas diverged from training on the heap")
	}
	kept := w.Grad
	w.Grad = nil
	if w.EnsureGrad().Arena() != nil {
		t.Fatal("SGD returned with the parameter still bound to the job arena")
	}

	// The next job on the slot: the job arena is reset, and serves the same
	// draws without growing.
	job.Reset()
	w.Grad = nil
	train(w, arena, job, 3)
	train(heapW, nil, nil, 3)
	if job.Retained() != 8*(2+2) || w.Grad != kept {
		t.Fatalf("the warm job arena grew to %d bytes or served the gradient a new buffer", job.Retained())
	}
	if !w.T.EqualBits(heapW.T) || !w.Grad.EqualBits(heapW.Grad) {
		t.Fatal("training from the warm arenas diverged from training on the heap")
	}
}

// arenaAlg is a fakeAlg that records the step and job arenas each job was
// lent, as a pair.
type arenaAlg struct {
	fakeAlg
	mu   *sync.Mutex
	lent map[[2]*tensor.Arena]int
}

func (a *arenaAlg) Spawn() (Algorithm, error) {
	return &arenaAlg{fakeAlg: fakeAlg{w: a.w.CloneLeaf(), stats: a.stats}, mu: a.mu, lent: a.lent}, nil
}

func (a *arenaAlg) LocalTrain(ctx *LocalContext) (Upload, error) {
	a.mu.Lock()
	a.lent[[2]*tensor.Arena{ctx.Arena, ctx.JobArena}]++
	a.mu.Unlock()
	return a.fakeAlg.LocalTrain(ctx)
}

// TestLocalRunnerKeepsOneArenaPerWorker: every job is lent a step arena and
// a job arena, always the same two together and never one arena as both;
// there are never more pairs than training goroutines, and every arena ever
// lent is back in the runner after the round, in the slot it was lent from,
// for the next round to borrow — which is why the runner must be kept.
func TestLocalRunnerKeepsOneArenaPerWorker(t *testing.T) {
	for _, workers := range []int{1, 2} {
		alg := &arenaAlg{fakeAlg: *newFakeAlg(), mu: new(sync.Mutex), lent: map[[2]*tensor.Arena]int{}}
		lr := &LocalRunner{Alg: alg, Workers: workers}
		jobs := make([]Job, 6)
		for i := range jobs {
			jobs[i] = Job{Ctx: &LocalContext{ClientID: i}}
		}
		for round := 0; round < 3; round++ {
			if err := lr.RunEach(jobs, func(int, Result) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if len(lr.slots) > workers {
				t.Fatalf("workers=%d round %d: the runner holds %d slots", workers, round, len(lr.slots))
			}
			kept := map[[2]*tensor.Arena]bool{}
			for _, s := range lr.slots {
				kept[[2]*tensor.Arena{&s.step, &s.job}] = true
			}
			seen := map[*tensor.Arena]bool{}
			for pair := range alg.lent {
				step, job := pair[0], pair[1]
				if step == nil || job == nil {
					t.Fatalf("workers=%d round %d: a job was lent no step arena or no job arena", workers, round)
				}
				if step == job || seen[step] || seen[job] {
					t.Fatalf("workers=%d round %d: an arena was lent in two roles or two pairs", workers, round)
				}
				seen[step], seen[job] = true, true
				if !kept[pair] {
					t.Fatalf("workers=%d round %d: a pair of arenas that was lent is not back in the runner", workers, round)
				}
			}
		}
	}
}
