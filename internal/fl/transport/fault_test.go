// Fault-injection harness: the acceptance gate for survivor re-queue. A
// full engine run over loopback TCP has one worker killed mid-round — the
// connection is closed immediately after the worker acks its first job of
// a chosen round — and the run must still complete, on the surviving
// worker, with an accuracy matrix exactly equal to an uncrashed run's.
//
// That equality is the whole correctness argument: jobs are placement-free
// deterministic computations, so the survivor re-executing the dead
// worker's unfinished jobs — rederiving their shards and training against
// the round state its re-queue frame brought it to — must reproduce
// byte-identical results. Crashing inside task 1 additionally pins the
// wire-state path: by then EWC has consolidated Fisher/anchor maps and LwF
// has snapshotted its distillation teacher, so the re-executed job only
// matches if that server-side state round-trips correctly to the worker
// that never ran the job before.
package transport_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/fl/transport"
	"reffil/internal/model"
)

// localRunCache memoizes runLocal per (method, family, domain count):
// several tests in this package compare against the same synchronous
// in-process reference under crossRunnerConfig.
var localRunCache sync.Map

// localRun is what the in-process reference run leaves: its accuracy matrix
// and its final weights and wire state.
type localRun struct {
	A     [][]float64
	final fltest.Final
}

// localRunOf returns the synchronous LocalRunner run of the method under
// crossRunnerConfig, computing it at most once per (method, family, class
// count, domains) fixture.
func localRunOf(t *testing.T, method string, family *data.Family, domains []string) localRun {
	t.Helper()
	key := fmt.Sprintf("%s/%s/%d/%d", method, family.Name, family.Classes, len(domains))
	if run, ok := localRunCache.Load(key); ok {
		return run.(localRun)
	}
	run := runLocal(t, method, family, domains)
	localRunCache.Store(key, run)
	return run
}

// runTCPWithCrash runs the full task sequence over loopback TCP with two
// workers, where worker slot 0 closes its connection right after acking
// its first job of round (crashTask, crashRound). Workers are dialed one
// at a time so the killer deterministically occupies slot 0 — the slot
// that round-robin assignment hands the round's first (and, with three
// jobs over two workers, third) job, guaranteeing the crash strands at
// least one unfinished job for the survivor to pick up. codec, when set, is
// named through the Pipeline's UseCodec first, as the benchmark does.
//
// With idleHeir the federation has four workers instead, so at three jobs a
// round slot 3 is dealt no job, and sent no frame, in any round: slots 0–2
// sever their connections on receiving the crash round's jobs, before
// acking any, and every one of those jobs ends up on slot 3, whose first
// re-queue frame — its first frame of the run — has to bring it from no
// state at all to the round's state and payload.
//
// It returns the run's matrix and final state.
func runTCPWithCrash(t *testing.T, method string, family *data.Family, domains []string, crashTask, crashRound int, codec string, idleHeir bool) localRun {
	t.Helper()
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var killErrs []<-chan error
	if idleHeir {
		for id := 0; id < 3; id++ {
			killErrs = append(killErrs, serveDyingOnJobs(t, coord, method, family, len(domains), id, crashTask, crashRound))
		}
	} else {
		// Worker slot 0: the killer. It executes jobs through a real
		// Executor, but in the crash round it severs the connection after
		// its first ack.
		killErrs = append(killErrs, serveCrashing(t, coord, method, family, len(domains), 0, crashTask, crashRound, nil))
	}
	// The last slot: a normal executor — the survivor.
	surviveErr, trained := dialServe(t, coord, method, family, len(domains), len(killErrs))

	alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := transport.NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	if codec != "" {
		if err := runner.UseCodec(codec); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, runner)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatalf("run with injected crash failed instead of re-queueing: %v", err)
	}

	if got := coord.NumLive(); got != 1 {
		t.Fatalf("live workers after crash = %d, want 1", got)
	}
	// The whole crashed-and-requeued run — including the survivor's
	// re-executions, which diff against the state their re-queue frames
	// brought it to — must have used base-relative uploads throughout.
	requireAllPatchUploads(t, runner.Stats())
	if trained.Load() == 0 {
		t.Fatal("the survivor trained no jobs")
	}
	for _, killErr := range killErrs {
		if err := <-killErr; err != nil {
			t.Fatal(err)
		}
	}
	_ = runner.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-surviveErr; err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	return localRun{A: mat.A, final: fltest.FinalOf(t, alg)}
}

// TestFaultInjectionCrashMidRound kills worker 0 mid-round and requires
// the completed run's accuracy matrix to equal the uncrashed reference,
// cell for cell, and its final weights and wire state to equal it bit for
// bit. The task-1 crash points re-execute jobs that depend on
// method wire state (EWC's Fisher/anchors, LwF's teacher) on a worker
// that never trained them before — the re-queue path's wire-state gate.
// RefFiL crashing in task 0 covers the prompt-upload path under re-queue.
//
// The survivor receives the unfinished jobs as one more frame of the round,
// built against the coordinator's mirror of it, and uploads patches diffed
// against the state that frame leaves it at — the mirror's dict, so the
// reconstruction is exact. Bit-identical matrices prove the re-queue/delta
// interaction loses nothing in either wire direction; the runs additionally
// assert every upload was a base-relative patch (no silent full-snapshot
// fallback). The cases suffixed /delta configure the runner as the
// benchmark does, naming the codec through UseCodec, and must recover to the
// same matrix. The idle-heir case hands LwF's
// task-1 jobs to a worker that idled through every earlier round, so its
// re-queue frame must carry the full state and the teacher payload.
func TestFaultInjectionCrashMidRound(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	type crashCase struct {
		method     string
		crashTask  int
		crashRound int
		codec      string
		idleHeir   bool
	}
	cases := []crashCase{
		{"RefFiL", 0, 1, "", false},
		{"FedEWC", 1, 0, "", false},
		{"FedLwF", 1, 0, "", false},
		{"RefFiL", 0, 1, "delta", false},
		{"FedEWC", 1, 0, "delta", false},
		{"FedLwF", 1, 0, "delta", false},
		{"FedLwF", 1, 0, "", true},
	}
	if testing.Short() {
		cases = []crashCase{{"RefFiL", 0, 1, "", false}, {"FedLwF", 1, 0, "delta", false}}
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/task%d_round%d", short(tc.method), tc.crashTask, tc.crashRound)
		if tc.codec != "" {
			name += "/" + tc.codec
		}
		if tc.idleHeir {
			name += "/idle_heir"
		}
		t.Run(name, func(t *testing.T) {
			want := localRunOf(t, tc.method, family, domains)
			got := runTCPWithCrash(t, tc.method, family, domains, tc.crashTask, tc.crashRound, tc.codec, tc.idleHeir)
			requireSameMatrix(t, "crashed-and-requeued", want.A, got.A)
			fltest.RequireSameFinal(t, "crashed-and-requeued", want.final, got.final)
		})
	}
}

// serveDyingOnJobs dials worker id with a fresh Executor and serves it on a
// background goroutine until the broadcast of round (crashTask, crashRound)
// that carries jobs: then it severs the connection without acking any. The
// channel reports a crash that was never injected.
func serveDyingOnJobs(t *testing.T, coord *transport.Coordinator, method string, family *data.Family, nTasks, id, crashTask, crashRound int) <-chan error {
	t.Helper()
	alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), nTasks, 7)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := transport.NewExecutor(alg, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := transport.Dial(coord.Addr(), id)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		err := w.Serve(func(b transport.Broadcast, emit func(transport.JobResult) error) error {
			if b.Task == crashTask && b.Round == crashRound && len(b.Jobs) > 0 {
				_ = w.Close()
				return fmt.Errorf("injected crash on task %d round %d's jobs", b.Task, b.Round)
			}
			return ex.Handle(b, emit)
		})
		_ = w.Close()
		if err == nil {
			done <- fmt.Errorf("worker %d's Serve returned nil — the crash was never injected", id)
			return
		}
		done <- nil
	}()
	if err := coord.Accept(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return done
}

// TestDeathMidDecodeLeavesTheJobToTheDecode holds the invariant an ack that
// names its job by index rests on — a job is settled only by a slot that
// holds it — across a death during a decode. Three workers take one job
// each of round (0,1). Slot 0's collector is held inside the decode of its
// ack while the test severs slot 0's connection and kills slot 1 before it
// acks. Slot 1's job is dealt to slot 0 first, whose send fails, so slot 0
// dies while its ack decodes. The job being decoded stays with the decode:
// slot 2 must be dealt slot 1's job alone, and the run must finish with the
// matrix and final state of a clean run.
func TestDeathMidDecodeLeavesTheJobToTheDecode(t *testing.T) {
	const method, crashTask, crashRound = "Finetune", 0, 1
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	want := localRunOf(t, method, family, domains)

	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	crash := func(b transport.Broadcast) bool { return b.Task == crashTask && b.Round == crashRound }
	// serve dials worker id and serves it through handle, given the
	// worker's Executor, on a background goroutine.
	serve := func(id int, handle func(w *transport.Worker, ex *transport.Executor, b transport.Broadcast, emit func(transport.JobResult) error) error) <-chan error {
		alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := transport.NewExecutor(alg, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := transport.Dial(coord.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			defer w.Close()
			done <- w.Serve(func(b transport.Broadcast, emit func(transport.JobResult) error) error {
				return handle(w, ex, b, emit)
			})
		}()
		if err := coord.Accept(1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		return done
	}

	// crashJobs receives the job indices of each crash-round broadcast to
	// slots 0 and 2, in order; kill releases slot 1's death.
	crashJobs := [3]chan []int{make(chan []int, 4), nil, make(chan []int, 4)}
	kill := make(chan struct{})
	record := func(slot int, b transport.Broadcast) {
		var idxs []int
		for _, j := range b.Jobs {
			idxs = append(idxs, j.Index)
		}
		crashJobs[slot] <- idxs
	}
	decoderErr := serve(0, func(_ *transport.Worker, ex *transport.Executor, b transport.Broadcast, emit func(transport.JobResult) error) error {
		if crash(b) {
			record(0, b)
		}
		return ex.Handle(b, emit)
	})
	dyingErr := serve(1, func(w *transport.Worker, ex *transport.Executor, b transport.Broadcast, emit func(transport.JobResult) error) error {
		if !crash(b) {
			return ex.Handle(b, emit)
		}
		<-kill
		_ = w.Close()
		return fmt.Errorf("injected crash on task %d round %d's jobs", b.Task, b.Round)
	})
	survivorErr := serve(2, func(_ *transport.Worker, ex *transport.Executor, b transport.Broadcast, emit func(transport.JobResult) error) error {
		if crash(b) {
			record(2, b)
		}
		return ex.Handle(b, emit)
	})

	var dispatched [3][]int
	var requeued []int
	var held sync.Once
	defer transport.HoldDecodes(func(index int) {
		if index != 0 || len(crashJobs[0]) == 0 {
			return
		}
		held.Do(func() {
			dispatched[0], dispatched[2] = <-crashJobs[0], <-crashJobs[2]
			coord.Sever(0)
			close(kill)
			select {
			case requeued = <-crashJobs[2]:
			case <-time.After(10 * time.Second):
			}
		})
	})()

	alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := transport.NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, runner)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatalf("run with a death mid-decode failed: %v", err)
	}
	if !slices.Equal(dispatched[0], []int{0}) || !slices.Equal(dispatched[2], []int{2}) {
		t.Fatalf("round (%d,%d) dealt slot 0 jobs %v and slot 2 jobs %v, want [0] and [2]", crashTask, crashRound, dispatched[0], dispatched[2])
	}
	if !slices.Equal(requeued, []int{1}) {
		t.Fatalf("slot 2 was dealt jobs %v again, want only slot 1's job [1]: the job slot 0 was decoding must stay with the decode", requeued)
	}
	requireSameMatrix(t, "death mid-decode", want.A, mat.A)
	fltest.RequireSameFinal(t, "death mid-decode", want.final, fltest.FinalOf(t, alg))
	if got := coord.NumLive(); got != 1 {
		t.Fatalf("live workers = %d, want 1", got)
	}
	_ = runner.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-survivorErr; err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	for _, ch := range []<-chan error{decoderErr, dyingErr} {
		if err := <-ch; err == nil {
			t.Fatal("a worker that died returned nil from Serve")
		}
	}
}
