package transport

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/fl"
	"reffil/internal/fl/wire"
	"reffil/internal/tensor"
)

// leanHandler is a worker handler that trains the way a pooled replica does,
// without allocating a model per job: it applies each frame to its tracker,
// copies the state into one dict it keeps, adds the client's id to every
// element of key and uploads the patch from one wire.Buffer.
func leanHandler(key string) func(Broadcast, func(JobResult) error) error {
	var tr wire.Tracker
	var up wire.Buffer
	var trained map[string]*tensor.Tensor
	return func(b Broadcast, emit func(JobResult) error) error {
		if _, _, _, err := tr.Apply(&b.Frame); err != nil {
			return err
		}
		if trained == nil {
			trained = cloneDict(tr.Dict)
		}
		for _, job := range b.Jobs {
			for k, v := range tr.Dict {
				trained[k].CopyFrom(v)
			}
			d := trained[key].Data()
			for j := range d {
				d[j] += float64(job.Spec.ClientID)
			}
			p, err := up.Encode(tr.Dict, trained)
			if err != nil {
				return err
			}
			if err := emit(JobResult{Index: job.Index, Patch: p}); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestWarmRoundsAllocateNothingOfModelSize is the allocation gate of the
// coordinator's round path. A stub model of 512 KB — a 448 KB frozen buffer
// and a 64 KB weight that every round's aggregate and every upload change —
// runs rounds of four jobs over two in-process workers that allocate no
// model of their own. Once the rounds are warm, one round must allocate
// less than the model's smaller tensor, the weight, in the whole process:
// the round's state dict keeps the buffer's tensor and writes the weight
// into the one retired from the dict of two rounds back, the broadcast
// patches are written into the last round's patch bytes, the uploads
// decode into their job index's buffer, and the frame readers' buffers
// already fit. The garbage collector is off
// for the measured rounds, because the wire's coder pools empty at every
// collection and refill from the heap, and the least of five rounds counts:
// a pool keeps a spare per processor, so at GOMAXPROCS above one a Get can
// miss — and allocate a DEFLATE writer bigger than the model — while the
// spare sits with another processor. A round-path allocation of a model
// tensor happens every round and shows in the least of them.
func TestWarmRoundsAllocateNothingOfModelSize(t *testing.T) {
	requireWarmRoundsUnderModelSize(t, false)
}

// TestDenseWarmRoundsAllocateNothingOfModelSize is the same gate with the
// buffer changed by every round too, so every key of the round's dict
// changes: the dict must be written into the tensors retired from the dict
// of two rounds back, not cloned.
func TestDenseWarmRoundsAllocateNothingOfModelSize(t *testing.T) {
	requireWarmRoundsUnderModelSize(t, true)
}

// requireWarmRoundsUnderModelSize runs the allocation gate; dense makes
// every round change the frozen buffer as well as the weight.
func requireWarmRoundsUnderModelSize(t *testing.T, dense bool) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const weight, frozen = 8 << 10, 56 << 10 // elements
	const modelBytes, weightBytes = 8 * (weight + frozen), 8 * weight
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	serve := func(w *Worker) error { return w.Serve(leanHandler("w")) }
	done := acceptInOrder(t, coord, serve, serve)
	alg := (&wireAlg{w: autograd.Param(tensor.New(weight))}).withFrozenBuffer(frozen)
	p, err := NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := wireJobs(1, 2, 3, 4)
	round := func(r int) {
		t.Helper()
		alg.w.T.Fill(float64(r))
		if dense {
			alg.frozen.Fill(float64(-r))
		}
		err := p.RunEach(jobs, func(i int, res fl.Result) error {
			defer res.Release()
			if got, want := res.Dict["w"].At(0), float64(r+jobs[i].Spec.ClientID); got != want {
				return fmt.Errorf("round %d job %d: w = %v, want %v", r, i, got, want)
			}
			if got := res.Dict["frozen"]; !got.EqualBits(alg.frozen) {
				return fmt.Errorf("round %d job %d: frozen = %v…, want %v…", r, i, got.At(0), alg.frozen.At(0))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := range 3 {
		round(r)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	alloc := uint64(1 << 62)
	for r := 3; r < 8; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round(r)
		runtime.ReadMemStats(&after)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a warm round allocates %.1f KB; the model is %d KB, its weight %d KB", float64(alloc)/1024, modelBytes>>10, weightBytes>>10)
	if alloc >= weightBytes {
		t.Errorf("a warm round allocates %d bytes, want less than the weight's %d", alloc, weightBytes)
	}
	_ = p.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}
