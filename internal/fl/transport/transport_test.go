package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/fl/wire"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// wireAlg is the minimal coordinator-side fl.Algorithm for Pipeline tests: a
// single scalar parameter. The Pipeline only reads Global()'s state dict
// and the algorithm's name; training happens in the tests' scripted worker
// handlers, never through LocalTrain.
type wireAlg struct {
	w      *autograd.Value
	frozen *tensor.Tensor
}

func newWireAlg(v float64) *wireAlg {
	a := &wireAlg{w: autograd.Param(tensor.New(1))}
	a.w.T.Data()[0] = v
	return a
}

// withFrozenBuffer attaches a large constant buffer — the delta codec's
// best case: it is broadcast once and never re-sent.
func (a *wireAlg) withFrozenBuffer(n int) *wireAlg {
	a.frozen = tensor.New(n)
	for i := range a.frozen.Data() {
		a.frozen.Data()[i] = float64(i)
	}
	return a
}

func (a *wireAlg) Name() string       { return "wire" }
func (a *wireAlg) Global() nn.Module  { return a }
func (a *wireAlg) Params() []nn.Param { return []nn.Param{{Name: "w", Value: a.w}} }
func (a *wireAlg) Buffers() []nn.Buffer {
	if a.frozen == nil {
		return nil
	}
	return []nn.Buffer{{Name: "frozen", T: a.frozen}}
}
func (a *wireAlg) Spawn() (fl.Algorithm, error) {
	rep := &wireAlg{w: a.w.CloneLeaf()}
	if a.frozen != nil {
		rep.frozen = a.frozen.Clone()
	}
	return rep, nil
}
func (a *wireAlg) OnTaskStart(int) error              { return nil }
func (a *wireAlg) OnTaskEnd(int, *data.Dataset) error { return nil }
func (a *wireAlg) LocalTrain(*fl.LocalContext) (fl.Upload, error) {
	return nil, nil
}
func (a *wireAlg) ServerRound(int, int, []fl.Upload) error { return nil }
func (a *wireAlg) Predict(x *tensor.Tensor) ([]int, error) { return make([]int, x.Dim(0)), nil }

var _ fl.Algorithm = (*wireAlg)(nil)

// wireJobs builds placement-only jobs (no local context, no shards): the
// scripted handlers below never materialize data.
func wireJobs(clients ...int) []fl.Job {
	jobs := make([]fl.Job, len(clients))
	for i, id := range clients {
		jobs[i] = fl.Job{Spec: fl.JobSpec{ClientID: id}, Weight: 1}
	}
	return jobs
}

// runCollected runs one round on r and collects the streamed results into
// job order.
func runCollected(r fl.EachRunner, jobs []fl.Job) ([]fl.Result, error) {
	results := make([]fl.Result, len(jobs))
	err := r.RunEach(jobs, func(i int, res fl.Result) error {
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// cloneDict deep-copies a state dict (tracker dicts share tensors across
// versions, so handlers must copy before perturbing).
func cloneDict(d map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(d))
	for k, v := range d {
		out[k] = v.Clone()
	}
	return out
}

// perturbHandler returns a streaming handler that "trains" each assigned
// job by adding delta(clientID) to every broadcast weight and acks it. It
// maintains the worker-side frame tracker and uploads patches against the
// state it trained from, so it works under every frame kind (full
// snapshots, per-key deltas, frames without state).
func perturbHandler(delta func(id int) float64) func(Broadcast, func(JobResult) error) error {
	return perturbKeysHandler(nil, delta)
}

// perturbKeysHandler is perturbHandler restricted to the named keys (nil =
// every key): "training" that leaves the other keys untouched, the way a
// frozen buffer rides through real local training.
func perturbKeysHandler(keys []string, delta func(id int) float64) func(Broadcast, func(JobResult) error) error {
	var tr wire.Tracker
	return func(b Broadcast, emit func(JobResult) error) error {
		if _, _, _, err := tr.Apply(&b.Frame); err != nil {
			return err
		}
		base := tr.Dict
		for _, job := range b.Jobs {
			state := cloneDict(base)
			for name, v := range state {
				if keys != nil {
					hit := false
					for _, want := range keys {
						hit = hit || want == name
					}
					if !hit {
						continue
					}
				}
				d := v.Data()
				for j := range d {
					d[j] += delta(job.Spec.ClientID)
				}
			}
			p, err := wire.Delta{}.Encode(base, state)
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

// acceptInOrder dials workers one at a time so slot order is
// deterministic: worker i always lands in coordinator slot i.
func acceptInOrder(t *testing.T, coord *Coordinator, serve ...func(w *Worker) error) []chan error {
	t.Helper()
	done := make([]chan error, len(serve))
	for i, fn := range serve {
		w, err := Dial(coord.Addr(), i)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Accept(1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		ch := make(chan error, 1)
		done[i] = ch
		go func(w *Worker, fn func(*Worker) error) {
			defer w.Close()
			ch <- fn(w)
		}(w, fn)
	}
	return done
}

// fakeCoordHandshake answers a dialing Worker's Hello on a raw test
// listener connection, returning the connection's frame writer and reader
// for the round messages.
func fakeCoordHandshake(t *testing.T, conn net.Conn) (*frameWriter, *frameReader) {
	t.Helper()
	enc, dec := &frameWriter{w: conn}, &frameReader{r: conn}
	if _, err := dec.readHello(); err != nil {
		t.Fatal(err)
	}
	if err := enc.writeHelloAck(HelloAck{Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	return enc, dec
}

// TestPipelineStreamsPerJobAcks drives the flow end to end over loopback:
// three jobs fan out over two workers, each worker streams one ack per job
// naming the job's index in the round, and the Pipeline hands the results
// over in job order.
func TestPipelineStreamsPerJobAcks(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	done := acceptInOrder(t, coord,
		func(w *Worker) error { return w.Serve(perturbHandler(func(id int) float64 { return float64(id) })) },
		func(w *Worker) error { return w.Serve(perturbHandler(func(id int) float64 { return float64(id) })) },
	)

	alg := newWireAlg(100)
	r, err := NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runCollected(r, wireJobs(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{101, 102, 103} {
		if got := results[i].Dict["w"].At(0); got != want {
			t.Fatalf("job %d result = %v, want %v", i, got, want)
		}
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestPipelineIdleWorkerStaysInLockstep runs two rounds with fewer jobs
// than workers: the worker dealt no job must be sent no frame at all, and
// stay live, so a third round with a job for each worker reaches it with the
// full snapshot its first frame is.
func TestPipelineIdleWorkerStaysInLockstep(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var mu sync.Mutex
	var idleSaw []wire.Kind
	idle := perturbHandler(func(id int) float64 { return 1 })
	done := acceptInOrder(t, coord,
		func(w *Worker) error { return w.Serve(perturbHandler(func(id int) float64 { return 1 })) },
		func(w *Worker) error {
			return w.Serve(func(b Broadcast, emit func(JobResult) error) error {
				mu.Lock()
				idleSaw = append(idleSaw, b.Frame.Kind)
				mu.Unlock()
				return idle(b, emit)
			})
		},
	)
	r, err := NewPipeline(coord, newWireAlg(0))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		results, err := runCollected(r, wireJobs(7))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := results[0].Dict["w"].At(0); got != 1 {
			t.Fatalf("round %d result = %v, want 1", round, got)
		}
	}
	mu.Lock()
	saw := len(idleSaw)
	mu.Unlock()
	if saw != 0 {
		t.Fatalf("the worker dealt no job received %d frames, want none", saw)
	}
	if got := coord.NumLive(); got != 2 {
		t.Fatalf("live workers = %d, want 2", got)
	}
	results, err := runCollected(r, wireJobs(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 1} {
		if got := results[i].Dict["w"].At(0); got != want {
			t.Fatalf("third round job %d result = %v, want %v", i, got, want)
		}
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(idleSaw, []wire.Kind{wire.KindFull}) {
		t.Fatalf("the once-idle worker saw frames %v, want one full snapshot", idleSaw)
	}
}

// killAfterFirstAck wraps a streaming handler so the worker closes its
// connection right after acknowledging its first job of the round —
// the fault the re-queue machinery exists for.
func killAfterFirstAck(w *Worker, inner func(Broadcast, func(JobResult) error) error) func(Broadcast, func(JobResult) error) error {
	return func(b Broadcast, emit func(JobResult) error) error {
		acked := false
		return inner(b, func(jr JobResult) error {
			if acked {
				return nil // swallowed: the conn is already gone
			}
			if err := emit(jr); err != nil {
				return err
			}
			acked = true
			return w.Close()
		})
	}
}

// TestPipelineRequeuesDeadWorkerJobs is the transport-level fault-injection
// test: worker 0 dies after acking the first of its two jobs, and the
// round must still complete — the acked result kept, the unfinished job
// re-queued on the survivor — with exactly the results an uncrashed run
// would produce. A follow-up round must then run entirely on the survivor.
func TestPipelineRequeuesDeadWorkerJobs(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	done := acceptInOrder(t, coord,
		func(w *Worker) error {
			return w.Serve(killAfterFirstAck(w, perturbHandler(func(id int) float64 { return float64(id) })))
		},
		func(w *Worker) error { return w.Serve(perturbHandler(func(id int) float64 { return float64(id) })) },
	)

	r, err := NewPipeline(coord, newWireAlg(100))
	if err != nil {
		t.Fatal(err)
	}
	rounds := make(chan RoundStats, 2)
	r.OnRound = func(rs RoundStats) { rounds <- rs }
	// Round-robin over 2 workers: slot 0 (the killer) gets jobs 0 and 2,
	// slot 1 gets job 1. Job 0 is acked before the crash; job 2 must be
	// re-queued onto slot 1.
	results, err := runCollected(r, wireJobs(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{101, 102, 103} {
		if got := results[i].Dict["w"].At(0); got != want {
			t.Fatalf("job %d result = %v, want %v", i, got, want)
		}
	}
	if got := coord.NumLive(); got != 1 {
		t.Fatalf("live workers after crash = %d, want 1", got)
	}
	// The killer's Serve must have terminated with an error.
	if err := <-done[0]; err == nil {
		t.Fatal("killed worker's Serve returned nil")
	}

	// Survivor-only follow-up round.
	results, err = runCollected(r, wireJobs(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{104, 105} {
		if got := results[i].Dict["w"].At(0); got != want {
			t.Fatalf("follow-up job %d result = %v, want %v", i, got, want)
		}
	}
	// The crashed round took a re-queue wave and counted its frames both
	// ways; the two rounds' records sum to the cumulative Stats.
	crashed, followUp := <-rounds, <-rounds
	if crashed.Attempts != 2 || crashed.BroadcastBytes == 0 || crashed.UploadBytes == 0 {
		t.Fatalf("crashed round stats %+v, want 2 attempts and bytes both ways", crashed)
	}
	if sum, st := SumRounds([]RoundStats{crashed, followUp}), r.Stats(); sum != st {
		t.Fatalf("round records sum to\n%+v\nStats reads\n%+v", sum, st)
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done[1]; err != nil {
		t.Fatalf("survivor: %v", err)
	}
}

// TestPipelineFailsWhenAllWorkersDie: with every worker dead mid-round there
// is nowhere to re-queue, and the round must fail rather than spin.
func TestPipelineFailsWhenAllWorkersDie(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := acceptInOrder(t, coord,
		func(w *Worker) error {
			return w.Serve(killAfterFirstAck(w, perturbHandler(func(id int) float64 { return float64(id) })))
		},
	)
	r, err := NewPipeline(coord, newWireAlg(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCollected(r, wireJobs(1, 2)); err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("run error = %v, want a no-live-workers failure", err)
	}
	<-done[0]
}

// TestPipelineCloseFailsWaitingRound: a round blocked on a worker that
// never acks must fail — not hang — when the pipeline is closed under it.
func TestPipelineCloseFailsWaitingRound(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	received := make(chan struct{})
	release := make(chan struct{})
	done := acceptInOrder(t, coord, func(w *Worker) error {
		return w.Serve(func(Broadcast, func(JobResult) error) error {
			close(received)
			<-release
			return nil
		})
	})
	r, err := NewPipeline(coord, newWireAlg(0))
	if err != nil {
		t.Fatal(err)
	}
	roundErr := make(chan error, 1)
	go func() {
		_, err := runCollected(r, wireJobs(1))
		roundErr <- err
	}()
	<-received
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-roundErr; err == nil || !strings.Contains(err.Error(), "pipeline closed") {
		t.Fatalf("round error = %v, want a pipeline-closed failure", err)
	}
	if _, err := runCollected(r, wireJobs(2)); err == nil {
		t.Fatal("a round on a closed pipeline must error")
	}
	close(release)
	_ = coord.Close()
	<-done[0]
}

// TestDispatchWaitsForADyingSend pins dispatch's wait for in-flight sends:
// the encoder writes a round's broadcast patches into the last round's
// patch bytes, so the next round's SetRound must not run while a send of the
// last round may still be writing one. Three workers, two jobs: slot 0 dies
// on its frame once slot 1 holds its own, and its job is dealt to slot 1.
// That send is held just before its write while the test severs slot 1,
// whose jobs then finish on slot 2. The round ends with the send still
// held, and the next round's dispatch must leave the encoder's round alone
// until the send returns.
func TestDispatchWaitsForADyingSend(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	train := func() func(Broadcast, func(JobResult) error) error {
		return perturbHandler(func(id int) float64 { return float64(id) })
	}
	framed := make(chan struct{})
	var once sync.Once
	slot1 := train()
	done := acceptInOrder(t, coord,
		func(w *Worker) error {
			if _, err := w.in.readBroadcast(); err != nil {
				return err
			}
			<-framed
			return w.Close()
		},
		func(w *Worker) error {
			return w.Serve(func(b Broadcast, emit func(JobResult) error) error {
				once.Do(func() { close(framed) })
				return slot1(b, emit)
			})
		},
		func(w *Worker) error { return w.Serve(train()) },
	)

	// Slot 1's first send is its dispatch frame, which reached the worker
	// before slot 0 died; its second is slot 0's job.
	held, release := make(chan struct{}), make(chan struct{})
	var slot1Sends atomic.Int32
	hold := func(slot int) {
		if slot == 1 && slot1Sends.Add(1) == 2 {
			close(held)
			<-release
		}
	}
	holdSend.Store(&hold)
	defer holdSend.Store(nil)
	go func() {
		<-held
		coord.Sever(1)
	}()

	alg := newWireAlg(100)
	r, err := NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runCollected(r, wireJobs(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{101, 102} {
		if got := results[i].Dict["w"].At(0); got != want {
			t.Fatalf("job %d result = %v, want %v", i, got, want)
		}
	}
	round1 := r.enc.Dict()["w"]

	alg.w.T.Data()[0] = 200 // the next round's dict gets a new "w"
	next := make(chan error, 1)
	go func() {
		results, err := runCollected(r, wireJobs(3))
		if err == nil && results[0].Dict["w"].At(0) != 203 {
			err = fmt.Errorf("round 2 result = %v, want 203", results[0].Dict["w"].At(0))
		}
		next <- err
	}()
	// A waiting dispatch gives no sign of waiting; one that did not wait
	// would reach SetRound well inside this window.
	time.Sleep(100 * time.Millisecond)
	if r.enc.Dict()["w"] != round1 {
		t.Error("the next round's SetRound ran while a send of the last round was held before its write")
	}
	close(release)
	if err := <-next; err != nil {
		t.Fatal(err)
	}
	if r.enc.Dict()["w"] == round1 {
		t.Fatal("the next round ran on the last round's dict")
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done[2]; err != nil {
		t.Fatalf("worker 2: %v", err)
	}
}

// TestStrayUpdateDeathRedealsJobsSentMeanwhile pins the order of a slot's
// death at its reader's end: the slot is marked dead before its hold is
// looked at. Slot 1 acks before it was sent any frame; its reader, having
// judged that update, is held before the death while a round deals slot 1
// a job and the frame reaches the worker. Released, the death must deal
// that job again on slot 0, or the round waits on it forever.
func TestStrayUpdateDeathRedealsJobsSentMeanwhile(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	stopped, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	hold := func(slot int) {
		if slot == 1 && held.CompareAndSwap(false, true) {
			close(stopped)
			<-release
		}
	}
	holdRead.Store(&hold)
	defer holdRead.Store(nil)
	framed := make(chan struct{})
	done := acceptInOrder(t, coord,
		func(w *Worker) error { return w.Serve(perturbHandler(func(id int) float64 { return float64(id) })) },
		func(w *Worker) error {
			if err := w.out.writeUpdate(&Update{Version: ProtocolVersion, WorkerID: 1, Ack: &JobResult{Patch: &wire.Patch{}}}); err != nil {
				return err
			}
			if _, err := w.in.readBroadcast(); err != nil {
				return err
			}
			close(framed)
			_, err := w.in.readBroadcast()
			return err
		},
	)
	<-stopped

	r, err := NewPipeline(coord, newWireAlg(100))
	if err != nil {
		t.Fatal(err)
	}
	round := make(chan error, 1)
	var results []fl.Result
	go func() {
		var err error
		results, err = runCollected(r, wireJobs(1, 2))
		round <- err
	}()
	<-framed
	close(release)
	select {
	case err := <-round:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the round never finished: the job slot 1 was dealt before its death is stranded")
	}
	for i, want := range []float64{101, 102} {
		if got := results[i].Dict["w"].At(0); got != want {
			t.Fatalf("job %d result = %v, want %v", i, got, want)
		}
	}
	if live := coord.NumLive(); live != 1 {
		t.Fatalf("live slots = %d, want 1 (slot 1 dead)", live)
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done[0]; err != nil {
		t.Fatalf("worker 0: %v", err)
	}
}

// TestBroadcastRoundTrip pins the frame codec: a Broadcast carrying a
// versioned delta frame (packed patch, payload bytes) and per-client job
// entries, a re-queue broadcast to a survivor dealt no job before (full
// snapshot and a spliced payload), the shutdown broadcast, and the per-job
// ack, fail and pong updates must round-trip through one frame stream
// without loss; an update that is none of those is refused.
func TestBroadcastRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dense, err := wire.Delta{}.Encode(nil, map[string]*tensor.Tensor{"w": tensor.RandN(rng, 1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	patch, err := wire.Delta{}.Encode(
		map[string]*tensor.Tensor{"w": tensor.RandN(rng, 1, 2, 3)},
		map[string]*tensor.Tensor{"w": tensor.RandN(rng, 1, 2, 3)},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := Broadcast{
		Version: ProtocolVersion,
		Task:    1,
		Round:   4,
		Frame: wire.Frame{
			Kind:           wire.KindDelta,
			BaseVersion:    3,
			Version:        4,
			Patch:          *patch,
			PayloadVersion: 2,
			HasPayload:     true,
			Payload:        []byte{9, 8, 7},
		},
		Jobs: []Job{{Index: 3, Spec: fl.JobSpec{
			ClientID:   5,
			Task:       1,
			ClientTask: 1,
			Group:      fl.GroupInBetween,
			Round:      4,
			Epochs:     2,
			BatchSize:  8,
			LR:         0.05,
			RngSeed:    fl.ClientSeed(2025, 5, 1, 4),
			Shards: []fl.ShardSpec{
				{Dataset: "pacs", Image: 16, Domain: "photo", Task: 0, TrainPerDomain: 24, TestPerDomain: 12,
					GenSeed: fl.TaskSeed(2025, 0), Learners: 4, Index: 2, Alpha: 0.5, PartSeed: fl.PartitionSeed(2025, 0)},
				{Dataset: "pacs", Image: 16, Domain: "cartoon", Task: 1, TrainPerDomain: 24, TestPerDomain: 12,
					GenSeed: fl.TaskSeed(2025, 1), Learners: 5, Index: 0, Alpha: 0.5, PartSeed: fl.PartitionSeed(2025, 1)},
			},
		}}},
	}
	requeue := Broadcast{
		Version: ProtocolVersion, Task: 1, Round: 4, Jobs: b.Jobs,
		Frame: wire.Frame{
			Kind: wire.KindFull, Version: 4, Patch: *dense,
			PayloadVersion: 2, HasPayload: true, Payload: bytes.Repeat([]byte{5}, 2*spliceMin),
		},
	}
	var buf bytes.Buffer
	enc, dec := frameWriter{w: &buf}, frameReader{r: &buf}
	for _, want := range []Broadcast{b, requeue, {Version: ProtocolVersion, Done: true}} {
		if err := enc.writeBroadcast(&want, nil); err != nil {
			t.Fatal(err)
		}
		got, err := dec.readBroadcast()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("broadcast round trip diverged:\n got %+v\nwant %+v", got, want)
		}
	}

	for _, u := range []Update{
		{
			Version:  ProtocolVersion,
			WorkerID: 1,
			Ack:      &JobResult{Index: 0, Patch: dense, Upload: []byte{1, 2}},
		},
		{
			Version:  ProtocolVersion,
			WorkerID: 0,
			Ack:      &JobResult{Index: 2, Patch: patch},
		},
		{Version: ProtocolVersion, WorkerID: 1, Error: "local training failed"},
		{Version: ProtocolVersion, WorkerID: 3, Pong: true},
	} {
		if err := enc.writeUpdate(&u); err != nil {
			t.Fatal(err)
		}
		got, _, err := dec.readUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u, got) {
			t.Fatalf("update round trip diverged:\n got %+v\nwant %+v", got, u)
		}
	}
	if err := enc.writeUpdate(&Update{Version: ProtocolVersion, WorkerID: 1}); err == nil {
		t.Fatal("an update with no ack, error or pong was written")
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left on the stream after the last frame", buf.Len())
	}
}

// TestWorkerRejectsVersionMismatch drives a Worker.Serve loop from a raw
// frame stream posing as a future-protocol coordinator: the worker must
// report the mismatch on a fail frame, send nothing after it, and
// terminate Serve with an error rather than interpreting the broadcast.
func TestWorkerRejectsVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	serveErr := make(chan error, 1)
	handled := make(chan struct{}, 1)
	go func() {
		w, err := Dial(ln.Addr().String(), 0)
		if err != nil {
			serveErr <- err
			return
		}
		defer w.Close()
		serveErr <- w.Serve(func(Broadcast, func(JobResult) error) error {
			handled <- struct{}{}
			return nil
		})
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := fakeCoordHandshake(t, conn)
	if err := enc.writeBroadcast(&Broadcast{Version: ProtocolVersion + 1}, nil); err != nil {
		t.Fatal(err)
	}
	u, _, err := dec.readUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if u.Error == "" || !strings.Contains(u.Error, "protocol") {
		t.Fatalf("update error = %q, want a protocol version rejection", u.Error)
	}
	if u.Ack != nil || u.Pong {
		t.Fatalf("update %+v, want a fail frame", u)
	}
	if err := <-serveErr; err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("Serve returned %v, want a protocol version error", err)
	}
	if u, _, err := dec.readUpdate(); err == nil {
		t.Fatalf("the worker sent %+v after its fail frame", u)
	}
	select {
	case <-handled:
		t.Fatal("handler ran despite version mismatch")
	default:
	}
}

// TestExecutorPartitionsEachTaskOnce: one executor asked for every shard of
// a task partitions the domain once. Each shard is Float64bits-equal to the
// one the engine derives (generate, partition, tag); together the shards hold
// each example tensor of one generation exactly once, and asking again hands
// back the same tensors. An index outside the partition is an error on the
// warm cache, not a panic. (TestEngineTaskTagsMatchShards in package fl
// counts the cached partitions.)
func TestExecutorPartitionsEachTaskOnce(t *testing.T) {
	const (
		task     = 1
		learners = 4
		seed     = int64(23)
	)
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	spec := fl.ShardSpec{
		Dataset: family.Name, Image: family.Size, Classes: family.Classes,
		Domain: family.Domains[task], Task: task,
		TrainPerDomain: 40, TestPerDomain: 8, GenSeed: fl.TaskSeed(seed, task),
		Learners: learners, Alpha: 0.5, PartSeed: fl.PartitionSeed(seed, task),
	}
	train, _, err := family.Generate(spec.Domain, spec.TrainPerDomain, spec.TestPerDomain, spec.GenSeed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := data.PartitionQuantityShift(train, learners, spec.Alpha, rand.New(rand.NewSource(spec.PartSeed)))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(newWireAlg(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	job := func(index int) fl.JobSpec {
		s := spec
		s.Index = index
		return fl.JobSpec{ClientID: index, Shards: []fl.ShardSpec{s}}
	}

	generated := map[*tensor.Tensor]bool{}
	for idx, w := range want {
		w.SetTask(task)
		gotJob, err := ex.parts.Job(job(idx))
		if err != nil {
			t.Fatal(err)
		}
		got := gotJob.Ctx.Data
		if got.Len() != w.Len() {
			t.Fatalf("shard %d: %d examples, the engine's has %d", idx, got.Len(), w.Len())
		}
		for i, e := range got.Examples {
			if e.Y != w.Examples[i].Y || e.Task != task || !e.X.EqualBits(w.Examples[i].X) {
				t.Fatalf("shard %d example %d differs from the engine's", idx, i)
			}
			if generated[e.X] {
				t.Fatalf("shard %d example %d: tensor already in another shard", idx, i)
			}
			generated[e.X] = true
		}
		again, err := ex.parts.Job(job(idx))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range again.Ctx.Data.Examples {
			if e.X != got.Examples[i].X {
				t.Fatalf("shard %d example %d: asking again regenerated the tensor", idx, i)
			}
		}
	}
	if len(generated) != spec.TrainPerDomain {
		t.Fatalf("%d example tensors, want the %d of one generation", len(generated), spec.TrainPerDomain)
	}
	for _, bad := range []int{-1, learners} {
		if _, err := ex.parts.Job(job(bad)); err == nil {
			t.Fatalf("index %d of a %d-way partition was accepted", bad, learners)
		}
	}
}

// TestCoordinatorRejectsVersionMismatch connects a raw frame stream posing
// as an old-protocol worker: the Pipeline's round must fail instead of
// consuming its acks.
func TestCoordinatorRejectsVersionMismatch(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		enc, dec := frameWriter{w: conn}, frameReader{r: conn}
		if err := enc.writeHello(Hello{Version: ProtocolVersion, WorkerID: 0}); err != nil {
			done <- err
			return
		}
		if _, err := dec.readHelloAck(); err != nil {
			done <- err
			return
		}
		if _, err := dec.readBroadcast(); err != nil {
			done <- err
			return
		}
		done <- enc.writeUpdate(&Update{Version: ProtocolVersion - 1, Error: "an older worker"})
	}()
	if err := coord.Accept(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := NewPipeline(coord, newWireAlg(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCollected(r, wireJobs(1)); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("round error = %v, want a protocol version rejection", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPipelineWithoutWorkers(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	r, err := NewPipeline(coord, newWireAlg(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCollected(r, wireJobs(1)); err == nil {
		t.Fatal("round with no workers must error")
	}
}

func TestAcceptTimeout(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Accept(1, 50*time.Millisecond); err == nil {
		t.Fatal("accept with no dialers must time out")
	}
}

// TestMultiRoundFederation runs five engine-free rounds through the Pipeline
// with the aggregate fed back between rounds, checking the round stream
// framing survives reuse of the same connections.
func TestMultiRoundFederation(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := acceptInOrder(t, coord,
		func(w *Worker) error { return w.Serve(perturbHandler(func(id int) float64 { return 1 })) },
	)
	alg := newWireAlg(0)
	r, err := NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		results, err := runCollected(r, wireJobs(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.LoadStateDict(alg.Global(), results[0].Dict); err != nil {
			t.Fatal(err)
		}
	}
	if got := alg.w.T.At(0); got != 5 {
		t.Fatalf("after 5 rounds w = %v, want 5", got)
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done[0]; err != nil {
		t.Fatal(err)
	}
}

// TestPipelineDeltaStats drives the byte accounting end to end: an algorithm
// whose state is one trainable scalar plus a large frozen buffer runs two
// rounds, with workers that "train" only the scalar.
// Round one must ship full snapshots (fresh workers — counted as
// fallbacks) but already collect patch uploads; round two per-key deltas
// that skip the frozen buffer entirely — in both directions — with the
// measured TCP bytes collapsing accordingly.
func TestPipelineDeltaStats(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	trainW := func(w *Worker) error {
		return w.Serve(perturbKeysHandler([]string{"w"}, func(id int) float64 { return float64(id) }))
	}
	done := acceptInOrder(t, coord, trainW, trainW)

	const frozenElems = 1 << 12
	alg := newWireAlg(100).withFrozenBuffer(frozenElems)
	r, err := NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.UseCodec("delta"); err != nil {
		t.Fatal(err)
	}
	// OnRound fires on a slot's reader goroutine once the round's last ack has
	// landed, possibly after Run has returned.
	roundDone := make(chan RoundStats, 1)
	r.OnRound = func(rs RoundStats) { roundDone <- rs }

	if _, err := runCollected(r, wireJobs(1, 2)); err != nil {
		t.Fatal(err)
	}
	first := <-roundDone
	if _, err := runCollected(r, wireJobs(1)); err != nil {
		t.Fatal(err)
	}
	<-roundDone
	if err := r.UseCodec("full"); err == nil {
		t.Fatal(`UseCodec("full") must error: delta is the only wire format`)
	}
	// Round 3: only the scalar changed since round 2 — the delta must skip
	// the frozen buffer.
	alg.w.T.Data()[0] = 42
	if _, err := runCollected(r, wireJobs(1, 2)); err != nil {
		t.Fatal(err)
	}
	third := <-roundDone

	if first.FullFrames != 2 || first.DeltaFrames != 0 {
		t.Fatalf("round 1 frames: %+v, want 2 full-snapshot fallbacks", first)
	}
	if third.DeltaFrames != 2 || third.FullFrames != 0 {
		t.Fatalf("round 3 frames: %+v, want 2 delta frames", third)
	}
	// The frozen buffer is ~32 KiB per full snapshot; a scalar delta is a
	// few hundred bytes. Demand an order of magnitude, not an exact count.
	if third.BroadcastBytes*10 >= first.BroadcastBytes {
		t.Fatalf("delta round broadcast %d bytes vs full round %d — deltas saved nothing",
			third.BroadcastBytes, first.BroadcastBytes)
	}
	// Every ack is a base-relative patch — the workers
	// receive state before their first job, so the no-base fallback never
	// fires. The trained scalar is a one-key patch; the frozen buffer must
	// drop out of the uploads exactly as it drops out of the broadcasts.
	if first.PatchUploads != 2 || first.UploadFallbacks != 0 {
		t.Fatalf("round 1 uploads: %+v, want 2 patch uploads", first)
	}
	stats := r.Stats()
	if stats.Rounds != 3 || stats.FullFrames != 2 || stats.DeltaFrames < 3 {
		t.Fatalf("cumulative stats: %+v", stats)
	}
	if stats.PatchUploads != 5 || stats.UploadFallbacks != 0 {
		t.Fatalf("cumulative upload counts: %+v, want 5 patch uploads", stats)
	}
	// Five full-state uploads would carry the ~32 KiB buffer five times;
	// five scalar patches amount to a few KB against the ~66 KiB of round
	// one's two full-snapshot broadcasts.
	if stats.UploadBytes*10 >= stats.BroadcastBytes {
		t.Fatalf("patch uploads %d bytes vs %d broadcast — upload deltas saved nothing",
			stats.UploadBytes, stats.BroadcastBytes)
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestPipelineRecyclesDecodeBuffers runs four rounds of three jobs over two
// workers. Round 1 holds every result until the round ends; later rounds
// release each result as soon as it is read, as the engine does. Whatever
// the order acks arrive in, the pipeline must keep exactly one decode
// buffer per job, and from round 2 on every upload must land in the tensor
// its job index decoded into in round 1, with this round's values.
func TestPipelineRecyclesDecodeBuffers(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	train := func(w *Worker) error {
		return w.Serve(perturbHandler(func(id int) float64 { return float64(id) }))
	}
	done := acceptInOrder(t, coord, train, train)
	alg := newWireAlg(0)
	r, err := NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := wireJobs(1, 2, 3)
	decoded := make([]*tensor.Tensor, len(jobs))
	for round := 0; round < 4; round++ {
		alg.w.T.Data()[0] = float64(10 * round)
		var held []fl.Result
		err := r.RunEach(jobs, func(i int, res fl.Result) error {
			w := res.Dict["w"]
			if round == 0 {
				decoded[i] = w
			} else if w != decoded[i] {
				return fmt.Errorf("round %d job %d: upload decoded into another tensor than round 0's", round, i)
			}
			if got, want := w.At(0), float64(10*round+jobs[i].Spec.ClientID); got != want {
				return fmt.Errorf("round %d job %d: w = %v, want %v", round, i, got, want)
			}
			if round == 0 {
				held = append(held, res)
			} else {
				res.Release()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range held {
			res.Release()
		}
		coord.mu.Lock()
		bufs := len(r.bufs)
		coord.mu.Unlock()
		if bufs != len(jobs) {
			t.Fatalf("round %d: %d decode buffers for %d jobs", round, bufs, len(jobs))
		}
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestLaggingSlotKeepsItsRoundDict runs rounds of 3, 2, 3, 3 and 3 jobs
// over three workers. Round 1 deals no job to slot 2, whose mirror and
// upload-decode base then still hold round 0's dict when round 2
// dispatches: that dict's tensors must not be written, so round 2's dict
// is a copy and slot 2's frame still diffs against round 0's values.
func TestLaggingSlotKeepsItsRoundDict(t *testing.T) {
	requireRoundDictsRecycleSafely(t, 3, nil, []int{3, 2, 3, 3, 3}, false)
}

// TestHeldResultKeepsItsRoundDict holds round 0's results, whose buffer
// key the upload leaves alone and so points at round 0's dict, until round
// 2 has run: with a result still lent, round 2's dispatch must copy
// instead of writing round 0's tensors, so the held results still read
// round 0's values.
func TestHeldResultKeepsItsRoundDict(t *testing.T) {
	requireRoundDictsRecycleSafely(t, 2, []string{"w"}, []int{2, 2, 2, 2}, true)
}

// requireRoundDictsRecycleSafely runs rounds of the given job counts over
// the given number of workers, which add their client id to the keys
// named (nil = every key), with a weight and a buffer that every round
// changes, so every key of every round's dict changes. Every result must
// be its round's global plus the client id on the trained keys, exactly;
// with hold, round 0's results are held until round 2 has run and must
// still read round 0's values then. Round 2's dict must not be written
// into round 0's tensors, and round 3's — once every slot holds round 2's
// dict and nothing is held — must be written into round 1's.
func requireRoundDictsRecycleSafely(t *testing.T, workers int, keys []string, rounds []int, hold bool) {
	t.Helper()
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	serve := make([]func(*Worker) error, workers)
	for i := range serve {
		serve[i] = func(w *Worker) error {
			return w.Serve(perturbKeysHandler(keys, func(id int) float64 { return float64(id) }))
		}
	}
	done := acceptInOrder(t, coord, serve...)
	alg := newWireAlg(0).withFrozenBuffer(64)
	r, err := NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	trained := func(name string) bool { return keys == nil || slices.Contains(keys, name) }
	check := func(round int, res fl.Result, id int, want map[string][]float64) error {
		for name, g := range want {
			for j, v := range g {
				if trained(name) {
					v += float64(id)
				}
				if got := res.Dict[name].Data()[j]; got != v {
					return fmt.Errorf("round %d client %d: %s[%d] = %v, want %v", round, id, name, j, got, v)
				}
			}
		}
		return nil
	}
	var (
		held  []fl.Result
		want0 map[string][]float64
		dicts []map[string]*tensor.Tensor
	)
	for round, n := range rounds {
		alg.w.T.Data()[0] = float64(10 * round)
		for i := range alg.frozen.Data() {
			alg.frozen.Data()[i] = float64(i + 100*round)
		}
		want := map[string][]float64{"w": slices.Clone(alg.w.T.Data()), "frozen": slices.Clone(alg.frozen.Data())}
		jobs := wireJobs(1, 2, 3)[:n]
		err := r.RunEach(jobs, func(i int, res fl.Result) error {
			if hold && round == 0 {
				held = append(held, res)
			} else {
				defer res.Release()
			}
			return check(round, res, jobs[i].Spec.ClientID, want)
		})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			want0 = want
		}
		if round == 2 {
			for i, res := range held {
				if err := check(0, res, i+1, want0); err != nil {
					t.Fatalf("held past round 2: %v", err)
				}
				res.Release()
			}
		}
		dicts = append(dicts, r.enc.Dict())
	}
	for name := range dicts[0] {
		if dicts[2][name] == dicts[0][name] {
			t.Errorf("round 2's %s was written into round 0's tensor, which a slot or a result still held", name)
		}
		if dicts[3][name] != dicts[1][name] {
			t.Errorf("round 3's %s was not written into round 1's tensor", name)
		}
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestWorkerChecksVersionBeforeDone pins the shutdown-spoof fix: a Done
// frame stamped with a foreign protocol version must not silently shut the
// worker down — the version gate runs before Done is honored. (Shutdown
// goes through send, which stamps the version, so genuine goodbyes pass.)
func TestWorkerChecksVersionBeforeDone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	serveErr := make(chan error, 1)
	go func() {
		w, err := Dial(ln.Addr().String(), 0)
		if err != nil {
			serveErr <- err
			return
		}
		defer w.Close()
		serveErr <- w.Serve(func(Broadcast, func(JobResult) error) error { return nil })
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := fakeCoordHandshake(t, conn)
	if err := enc.writeBroadcast(&Broadcast{Version: ProtocolVersion + 1, Done: true}, nil); err != nil {
		t.Fatal(err)
	}
	u, _, err := dec.readUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if u.Error == "" || !strings.Contains(u.Error, "protocol") {
		t.Fatalf("update error = %q, want a protocol version rejection", u.Error)
	}
	if err := <-serveErr; err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("Serve returned %v, want a protocol version error — a spoofed Done shut the worker down", err)
	}
}

// TestCoordinatorClosedSafe pins the Close/round race fix: slot lookups,
// markDead and send on a closed coordinator must error (or no-op) instead
// of panicking on the discarded workers slice, Close must be idempotent,
// and concurrent sends and markDead calls, and slot readers still reading,
// during Close must be safe. It also holds a coordinator to one Pipeline.
func TestCoordinatorClosedSafe(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Both workers pong every millisecond, so their slots' readers are
	// reading while Close runs; slot 0 is also hammered, slot 1 is not.
	var served []chan error
	for id := range 2 {
		w, err := DialWith(coord.Addr(), id, DialOptions{Heartbeat: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := coord.Accept(1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		ch := make(chan error, 1)
		served = append(served, ch)
		go func() { ch <- w.Serve(perturbHandler(func(int) float64 { return 1 })) }()
	}
	if _, err := NewPipeline(coord, newWireAlg(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(coord, newWireAlg(0)); err == nil || !strings.Contains(err.Error(), "already runs a pipeline") {
		t.Fatalf("second NewPipeline on one coordinator = %v, want a refusal", err)
	}

	var wg sync.WaitGroup
	// Hammer the paths a straggling round goroutine would hit while Close
	// runs (one sender per connection, as the Pipeline guarantees); under
	// -race this also proves the locking.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = coord.send(0, Broadcast{Done: true}, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			coord.markDead(0, false)
			coord.NumLive()
		}
	}()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	<-served[1] // the worker's connection died with the coordinator

	if err := coord.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := coord.send(0, Broadcast{}, nil); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("send after Close = %v, want a closed-coordinator error", err)
	}
	coord.markDead(0, false) // must not panic
	coord.markDead(99, false)
	if err := coord.Accept(1, 10*time.Millisecond); err == nil {
		t.Fatal("Accept after Close must error")
	}
	if got := coord.NumLive(); got != 0 {
		t.Fatalf("NumLive after Close = %d, want 0", got)
	}
}

// TestRequeueAdvancesSurvivorMirror pins the re-queue/delta interaction:
// jobs re-queued onto a survivor are broadcasts of the round in flight like
// any other, framed against the survivor's mirror, which advances with them.
// Three workers die holding jobs, one after another, and worker 3, dealt no
// job and so sent no frame at dispatch, inherits twice: its first re-queue
// frame is a full snapshot (it never held a state version), its second
// carries no state (it now holds the round's), and its next live frame is a
// delta from the round's version rather than a fallback. Worker 2 dies on its dispatch frame, workers 0 and 1 on the
// re-queue frame each receives after it, and worker 1 only once the
// survivor holds worker 0's re-queue: otherwise worker 1's death could deal
// the survivor its two jobs before worker 0's death dealt it one. So the
// order of deaths and of the survivor's frames is fixed.
func TestRequeueAdvancesSurvivorMirror(t *testing.T) {
	requeueOntoIdleSurvivor(t)
}

// TestPoisonedRequeueAdvancesSurvivorMirror runs the re-queue scenario with
// every reused buffer poisoned once its contents are consumed (see
// PoisonReusedBuffers): the frames, the survivor's mirror and the results
// must be exactly those of the unpoisoned run.
func TestPoisonedRequeueAdvancesSurvivorMirror(t *testing.T) {
	defer PoisonReusedBuffers()()
	requeueOntoIdleSurvivor(t)
}

func requeueOntoIdleSurvivor(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// dieOnBroadcast reads n broadcasts without answering any, waits for
	// after to close, then closes the connection.
	dieOnBroadcast := func(n int, after <-chan struct{}) func(w *Worker) error {
		return func(w *Worker) error {
			for i := 0; i < n; i++ {
				if _, err := w.in.readBroadcast(); err != nil {
					return err
				}
			}
			<-after
			return w.Close()
		}
	}
	now := make(chan struct{})
	close(now)
	type seenFrame struct {
		kind wire.Kind
		jobs int
	}
	seen := make(chan seenFrame, 8)
	// firstRequeue closes when the survivor receives its first re-queue,
	// its first frame of the round.
	firstRequeue := make(chan struct{})
	survivor := func(w *Worker) error {
		inner := perturbHandler(func(id int) float64 { return float64(id) })
		frames := 0
		return w.Serve(func(b Broadcast, emit func(JobResult) error) error {
			seen <- seenFrame{b.Frame.Kind, len(b.Jobs)}
			if frames++; frames == 1 {
				close(firstRequeue)
			}
			return inner(b, emit)
		})
	}
	done := acceptInOrder(t, coord, dieOnBroadcast(2, now), dieOnBroadcast(2, firstRequeue), dieOnBroadcast(1, now), survivor)

	r, err := NewPipeline(coord, newWireAlg(100))
	if err != nil {
		t.Fatal(err)
	}
	roundDone := make(chan RoundStats, 1)
	r.OnRound = func(rs RoundStats) { roundDone <- rs }

	// Three jobs over four workers: slots 0–2 get one each, slot 3 nothing.
	// Slot 2's job re-queues onto slot 0, slot 0's two onto slots 1 and 3,
	// slot 1's two onto slot 3.
	results, err := runCollected(r, wireJobs(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{101, 102, 103} {
		if got := results[i].Dict["w"].At(0); got != want {
			t.Fatalf("job %d result = %v, want %v", i, got, want)
		}
	}
	if got := coord.NumLive(); got != 1 {
		t.Fatalf("live workers = %d, want 1", got)
	}
	rs := <-roundDone
	// Full frames: three at dispatch, one to the survivor's first re-queue.
	// Frames without state: one to each worker already at the round's
	// version (slots 0, 1 and 3).
	if rs.Attempts != 4 || rs.FullFrames != 4 || rs.IdleFrames != 3 || rs.DeltaFrames != 0 {
		t.Fatalf("round stats %+v, want 4 attempts, 4 full frames (all fallbacks), 3 without state, no delta", rs)
	}
	w, err := coord.slot(3)
	if err != nil {
		t.Fatal(err)
	}
	w.sendMu.Lock()
	mirror := w.tracker
	w.sendMu.Unlock()
	if mirror.Version != 1 || mirror.Dict == nil {
		t.Fatalf("survivor mirror at version %d after the re-queues, want the round's version 1", mirror.Version)
	}

	// The next live round must treat the survivor as the current worker its
	// mirror says it is.
	results, err = runCollected(r, wireJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Dict["w"].At(0); got != 104 {
		t.Fatalf("follow-up result = %v, want 104", got)
	}
	if rs := <-roundDone; rs.DeltaFrames != 1 || rs.FullFrames != 0 {
		t.Fatalf("follow-up round stats %+v, want one delta frame and no fallback", rs)
	}
	_ = r.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	close(seen)
	var got []seenFrame
	for f := range seen {
		got = append(got, f)
	}
	want := []seenFrame{{wire.KindFull, 1}, {wire.KindNone, 2}, {wire.KindDelta, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("survivor saw frames %+v, want full re-queue, stateless re-queue, delta", got)
	}
}
