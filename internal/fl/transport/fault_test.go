// Fault-injection harness: the acceptance gate for survivor re-queue. A
// full engine run over loopback TCP has one worker killed mid-round — the
// connection is closed immediately after the worker acks its first job of
// a chosen round — and the run must still complete, on the surviving
// worker, making the same run as an uncrashed one.
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
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/fl/transport"
)

// TestFaultInjectionCrashMidRound kills workers mid-round and requires the
// completed run to be the uncrashed reference: the same hashes at every
// snapshot, the same matrix cell for cell, and the same final weights and
// wire state bit for bit. Worker slot 0 acks its first job of the crash
// round and severs its connection; workers are dialed in order, so it holds
// the slot that round-robin dealing hands the round's first (and, with three
// jobs over two workers, third) job, and the crash strands at least one
// unfinished job for the survivor in slot 1. The task-1 crash points
// re-execute jobs that depend on method wire state (EWC's Fisher/anchors,
// LwF's teacher) on a worker that never trained them before — the re-queue
// path's wire-state gate. RefFiL crashing in task 0 covers the
// prompt-upload path under re-queue.
//
// The survivor receives the unfinished jobs as one more frame of the round,
// built against the coordinator's mirror of it, and uploads patches diffed
// against the state that frame leaves it at — the mirror's dict, so the
// reconstruction is exact. Every upload must be a base-relative patch (no
// silent full-snapshot fallback), one worker must be left live and the
// survivor must have trained. The idle-heir case has four workers: at three
// jobs a round slot 3 is dealt no job, and sent no frame, in any round, and
// slots 0–2 sever their connections on receiving the crash round's jobs,
// before acking any. Every one of those jobs ends up on slot 3, whose first
// re-queue frame — its first frame of the run — has to bring it from no
// state at all to LwF's task-1 state and teacher payload.
func TestFaultInjectionCrashMidRound(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	type crashCase struct {
		method      string
		task, round int
		idleHeir    bool
	}
	cases := []crashCase{
		{"RefFiL", 0, 1, false},
		{"FedEWC", 1, 0, false},
		{"FedLwF", 1, 0, false},
		{"FedLwF", 1, 0, true},
	}
	if testing.Short() {
		cases = []crashCase{{"RefFiL", 0, 1, false}, {"FedLwF", 1, 0, false}}
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/task%d_round%d", short(tc.method), tc.task, tc.round)
		workers := []fltest.Worker{{Kind: fltest.CrashAfterAck, Task: tc.task, Round: tc.round}}
		if tc.idleHeir {
			name += "/idle_heir"
			die := fltest.Worker{Kind: fltest.DieOnJobs, Task: tc.task, Round: tc.round}
			workers = []fltest.Worker{die, die, die}
		}
		workers = append(workers, fltest.Worker{})
		t.Run(name, func(t *testing.T) {
			got := fltest.Federate(t, tc.method, family, domains, fltest.Federation{Workers: workers})
			fltest.RequireSameRun(t, "crashed-and-requeued", fltest.Reference(t, tc.method, family, domains), got.Run)
			if got.Live != 1 {
				t.Fatalf("live workers after crash = %d, want 1", got.Live)
			}
			// The whole crashed-and-requeued run — including the
			// survivor's re-executions, which diff against the state their
			// re-queue frames brought it to — must have used base-relative
			// uploads throughout.
			requireAllPatchUploads(t, got.Stats)
			if got.Trained[len(workers)-1] == 0 {
				t.Fatal("the survivor trained no jobs")
			}
		})
	}
}

// TestDeathMidDecodeLeavesTheJobToTheDecode holds the invariant an ack that
// names its job by index rests on — a job is settled only by a slot that
// holds it — across a death during a decode. Three workers take one job
// each of round (0,1). Slot 0's reader is held inside the decode of its
// ack while the test severs slot 0's connection and kills slot 1 before it
// acks. Slot 1's job is dealt to slot 0 first, whose send fails, so slot 0
// dies while its ack decodes. The job being decoded stays with the decode:
// slot 2 must be dealt slot 1's job alone, and the run must be the clean
// run.
func TestDeathMidDecodeLeavesTheJobToTheDecode(t *testing.T) {
	const method, crashTask, crashRound = "Finetune", 0, 1
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	want := fltest.Reference(t, method, family, domains)

	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	crash := func(b transport.Broadcast) bool { return b.Task == crashTask && b.Round == crashRound }
	// serve dials worker id and serves it through handle, given the
	// worker's Executor, on a background goroutine.
	serve := func(id int, handle func(w *transport.Worker, ex *transport.Executor, b transport.Broadcast, emit func(transport.JobResult) error) error) <-chan error {
		ex, err := transport.NewExecutor(fltest.NewMethod(t, method, family, domains), 1)
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

	alg := fltest.NewMethod(t, method, family, domains)
	runner, err := transport.NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(fltest.Config(), alg, runner)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fltest.Execute(t, eng, alg, family, domains, nil)
	if err != nil {
		t.Fatalf("run with a death mid-decode failed: %v", err)
	}
	if !slices.Equal(dispatched[0], []int{0}) || !slices.Equal(dispatched[2], []int{2}) {
		t.Fatalf("round (%d,%d) dealt slot 0 jobs %v and slot 2 jobs %v, want [0] and [2]", crashTask, crashRound, dispatched[0], dispatched[2])
	}
	if !slices.Equal(requeued, []int{1}) {
		t.Fatalf("round (%d,%d) dealt slot 2 jobs %v again, want only slot 1's job [1]: the job slot 0 was decoding must stay with the decode", crashTask, crashRound, requeued)
	}
	fltest.RequireSameRun(t, "death mid-decode", want, got)
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
