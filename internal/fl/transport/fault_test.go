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
	"sync"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/model"
)

// localMatrixCache memoizes runLocal per (method, family, domain count):
// several tests in this package compare against the same synchronous
// in-process reference under crossRunnerConfig.
var localMatrixCache sync.Map

// localReference returns the synchronous LocalRunner accuracy matrix for
// the method under crossRunnerConfig, computing it at most once per
// (method, family, class count, domains) fixture.
func localReference(t *testing.T, method string, family *data.Family, domains []string) [][]float64 {
	t.Helper()
	key := fmt.Sprintf("%s/%s/%d/%d", method, family.Name, family.Classes, len(domains))
	if mat, ok := localMatrixCache.Load(key); ok {
		return mat.([][]float64)
	}
	mat := runLocal(t, method, family, domains)
	localMatrixCache.Store(key, mat)
	return mat
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
// round slot 3 idles in every round: slots 0–2 sever their connections on
// receiving the crash round's jobs, before acking any, and every one of
// those jobs ends up on slot 3, whose first re-queue frame has to bring it
// from no state at all to the round's state and payload.
func runTCPWithCrash(t *testing.T, method string, family *data.Family, domains []string, crashTask, crashRound int, codec string, idleHeir bool) [][]float64 {
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
	return mat.A
}

// TestFaultInjectionCrashMidRound kills worker 0 mid-round and requires
// the completed run's accuracy matrix to equal the uncrashed reference,
// cell for cell. The task-1 crash points re-execute jobs that depend on
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
			want := localReference(t, tc.method, family, domains)
			got := runTCPWithCrash(t, tc.method, family, domains, tc.crashTask, tc.crashRound, tc.codec, tc.idleHeir)
			requireSameMatrix(t, "crashed-and-requeued", want, got)
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
