package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
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
// snapshots, per-key deltas, idle frames).
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
		for k, spec := range b.Jobs {
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
					d[j] += delta(spec.ClientID)
				}
			}
			p, err := wire.Delta{}.Encode(base, state)
			if err != nil {
				return err
			}
			if err := emit(JobResult{Index: k, Patch: p}); err != nil {
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

// TestPipelineStreamsPerJobAcks drives the v3 flow end to end over loopback:
// three jobs fan out over two workers, each worker streams one ack per job
// plus a Done frame, and the Pipeline maps the acks back into job order.
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

// TestPipelineIdleWorkerStaysInLockstep runs a round with fewer jobs than
// workers: the idle worker must receive an empty broadcast, answer with a
// bare Done, and stay live for the next round.
func TestPipelineIdleWorkerStaysInLockstep(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := acceptInOrder(t, coord,
		func(w *Worker) error { return w.Serve(perturbHandler(func(id int) float64 { return 1 })) },
		func(w *Worker) error { return w.Serve(perturbHandler(func(id int) float64 { return 1 })) },
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
	if got := coord.NumLive(); got != 2 {
		t.Fatalf("live workers = %d, want 2", got)
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

// TestBroadcastRoundTrip pins the frame codec: a Broadcast carrying a
// versioned delta frame (packed patch, payload bytes) and per-client job
// specs, a re-queue broadcast to an idle survivor (full snapshot and a
// spliced payload), and the per-job ack, Done and Pong updates must
// round-trip through one frame stream without loss.
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
		Jobs: []fl.JobSpec{{
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
		}},
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
			Results:  []JobResult{{Index: 0, Patch: dense, Upload: []byte{1, 2}}},
		},
		{
			Version:  ProtocolVersion,
			WorkerID: 0,
			Results:  []JobResult{{Index: 2, Patch: patch}},
		},
		{Version: ProtocolVersion, WorkerID: 1, Done: true},
		{Version: ProtocolVersion, WorkerID: 1, Done: true, Error: "local training failed"},
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
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left on the stream after the last frame", buf.Len())
	}
}

// TestWorkerRejectsVersionMismatch drives a Worker.Serve loop from a raw
// frame stream posing as a future-protocol coordinator: the worker must
// report the mismatch on its final frame and terminate Serve with an
// error rather than interpreting the broadcast.
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
	if !u.Done {
		t.Fatal("the error frame must be the stream's final frame")
	}
	if err := <-serveErr; err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("Serve returned %v, want a protocol version error", err)
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
// warm cache, not a panic.
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
		got, err := ex.dataset(job(idx))
		if err != nil {
			t.Fatal(err)
		}
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
		again, err := ex.dataset(job(idx))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range again.Examples {
			if e.X != got.Examples[i].X {
				t.Fatalf("shard %d example %d: asking again regenerated the tensor", idx, i)
			}
		}
	}
	if len(generated) != spec.TrainPerDomain || len(ex.partitions) != 1 {
		t.Fatalf("%d example tensors in %d cached partitions, want the %d of one generation in one",
			len(generated), len(ex.partitions), spec.TrainPerDomain)
	}
	for _, bad := range []int{-1, learners} {
		if _, err := ex.dataset(job(bad)); err == nil {
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
		done <- enc.writeUpdate(&Update{Version: ProtocolVersion - 1, Done: true})
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
	// OnRound fires on a collector goroutine once the round's last ack has
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

	if first.FullFrames != 2 || first.Fallbacks != 2 || first.DeltaFrames != 0 {
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

// TestPipelineRecyclesDecodeBuffers runs four rounds of three jobs
// over two workers. Round 1 holds every result until the round ends, so it
// leaves one decode buffer per job; later rounds release each result as soon
// as it is read, as the engine does. The free list must never hold more
// buffers than a round has jobs, and from round 2 on every upload must land
// in a tensor round 1 decoded into, with this round's values.
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
	decoded := make(map[*tensor.Tensor]bool)
	for round := 0; round < 4; round++ {
		alg.w.T.Data()[0] = float64(10 * round)
		var held []fl.Result
		err := r.RunEach(jobs, func(i int, res fl.Result) error {
			w := res.Dict["w"]
			if round > 0 && !decoded[w] {
				return fmt.Errorf("round %d job %d: upload decoded into a new tensor", round, i)
			}
			decoded[w] = true
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
		r.mu.Lock()
		free := len(r.free)
		r.mu.Unlock()
		if free > len(jobs) {
			t.Fatalf("round %d: %d idle decode buffers for %d jobs", round, free, len(jobs))
		}
	}
	if len(decoded) != len(jobs) {
		t.Fatalf("uploads were decoded into %d tensors, want one per job (%d)", len(decoded), len(jobs))
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
// markDead, send and recv on a closed coordinator must error (or no-op)
// instead of panicking on the discarded workers slice, Close must be
// idempotent, and concurrent markDead calls during Close must be safe.
func TestCoordinatorClosedSafe(t *testing.T) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := acceptInOrder(t, coord,
		func(w *Worker) error { return w.Serve(perturbHandler(func(int) float64 { return 1 })) },
	)

	var wg sync.WaitGroup
	// Hammer the paths a straggling round goroutine would hit while Close
	// runs (one sender and one receiver per connection, as the Pipeline
	// guarantees); under -race this also proves the locking.
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = coord.send(0, Broadcast{Done: true})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_, _ = coord.recv(0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			coord.markDead(0)
			coord.NumLive()
		}
	}()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	<-done[0] // the worker's connection died with the coordinator

	if err := coord.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := coord.send(0, Broadcast{}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("send after Close = %v, want a closed-coordinator error", err)
	}
	if _, err := coord.recv(0); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("recv after Close = %v, want a closed-coordinator error", err)
	}
	coord.markDead(0) // must not panic
	coord.markDead(99)
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
// Three workers die holding jobs, one after another, and the idle worker 3
// inherits twice: its first re-queue frame is a full snapshot (it never held
// a state version), its second carries no state (it now holds the round's),
// and its next live frame is a delta from the round's version rather than a
// fallback. Worker 2 dies on its dispatch frame, workers 0 and 1 on the
// re-queue frame each receives after it, so the order of deaths and of the
// survivor's frames is fixed.
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

	// dieOnBroadcast reads n broadcasts without answering any, then closes
	// the connection.
	dieOnBroadcast := func(n int) func(w *Worker) error {
		return func(w *Worker) error {
			for i := 0; i < n; i++ {
				if _, err := w.in.readBroadcast(); err != nil {
					return err
				}
			}
			return w.Close()
		}
	}
	type seenFrame struct {
		kind wire.Kind
		jobs int
	}
	seen := make(chan seenFrame, 8)
	survivor := func(w *Worker) error {
		inner := perturbHandler(func(id int) float64 { return float64(id) })
		return w.Serve(func(b Broadcast, emit func(JobResult) error) error {
			seen <- seenFrame{b.Frame.Kind, len(b.Jobs)}
			return inner(b, emit)
		})
	}
	done := acceptInOrder(t, coord, dieOnBroadcast(2), dieOnBroadcast(2), dieOnBroadcast(1), survivor)

	r, err := NewPipeline(coord, newWireAlg(100))
	if err != nil {
		t.Fatal(err)
	}
	roundDone := make(chan RoundStats, 1)
	r.OnRound = func(rs RoundStats) { roundDone <- rs }

	// Three jobs over four workers: slots 0–2 get one each, slot 3 idles.
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
	// Full frames: three at dispatch, one to the idle survivor. Frames
	// without state: the survivor's idle one, then one to each worker
	// already at the round's version (slots 0, 1 and 3).
	if rs.Attempts != 4 || rs.FullFrames != 4 || rs.Fallbacks != 4 || rs.IdleFrames != 4 || rs.DeltaFrames != 0 {
		t.Fatalf("round stats %+v, want 4 attempts, 4 full frames (all fallbacks), 4 without state, no delta", rs)
	}
	r.mu.Lock()
	st := r.slots[3]
	r.mu.Unlock()
	st.sendMu.Lock()
	mirror := st.tracker
	st.sendMu.Unlock()
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
	if rs := <-roundDone; rs.DeltaFrames != 1 || rs.FullFrames != 0 || rs.Fallbacks != 0 {
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
	want := []seenFrame{{wire.KindNone, 0}, {wire.KindFull, 1}, {wire.KindNone, 2}, {wire.KindDelta, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("survivor saw frames %+v, want idle, full re-queue, stateless re-queue, delta", got)
	}
}
