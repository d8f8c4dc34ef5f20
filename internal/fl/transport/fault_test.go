// Fault-injection harness: the acceptance gate for survivor re-queue. A
// full engine run over loopback TCP has one worker killed mid-round — the
// connection is closed immediately after the worker acks its first job of
// a chosen round — and the run must still complete, on the surviving
// worker, with an accuracy matrix exactly equal to an uncrashed run's.
//
// That equality is the whole correctness argument: jobs are placement-free
// deterministic computations, so the survivor re-executing the dead
// worker's unfinished jobs — rederiving their shards and training against
// the replayed round state — must reproduce byte-identical results. Crashing inside
// task 1 additionally pins the wire-state path: by then EWC has
// consolidated Fisher/anchor maps and LwF has snapshotted its distillation
// teacher, so the re-executed job only matches if that server-side state
// round-trips correctly to the worker that never ran the job before.
package transport_test

import (
	"fmt"
	"sync"
	"testing"

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
// least one unfinished job for the survivor to pick up. codec selects the
// broadcast codec ("" = the default full snapshots).
func runTCPWithCrash(t *testing.T, method string, family *data.Family, domains []string, crashTask, crashRound int, codec string) [][]float64 {
	t.Helper()
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Worker slot 0: the killer. It executes jobs through a real Executor,
	// but in the crash round it severs the connection after its first ack.
	killErr := serveCrashing(t, coord, method, family, len(domains), 0, crashTask, crashRound, nil)
	// Worker slot 1: a normal executor — the survivor.
	surviveErr, _ := dialServe(t, coord, method, family, len(domains), 1)

	alg, err := experiments.NewMethodFromFlag(method, model.DefaultConfig(family.Classes), len(domains), 7)
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
	if codec != "" {
		// The whole crashed-and-requeued run — including the survivor's
		// re-executions, which diff against the replayed origin-round state
		// — must have used base-relative uploads throughout.
		requireAllPatchUploads(t, runner.Stats())
	}
	if err := <-killErr; err != nil {
		t.Fatal(err)
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
// The delta-codec cases re-run the crash under delta broadcast *and*
// delta-encoded uploads: the coordinator drops the dead worker's base
// tracking, the survivor receives the unfinished jobs as a Replay carrying
// the round's retained state (and, for LwF, the round's teacher payload)
// out of band, uploads patches diffed against that replayed state — which
// the coordinator still holds, so the reconstruction is exact — and then
// restores its own stream state. Bit-identical matrices prove the
// re-queue/delta interaction loses nothing in either wire direction; the
// runs additionally assert every upload was a base-relative patch (no
// silent full-snapshot fallback).
func TestFaultInjectionCrashMidRound(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	cases := []struct {
		method     string
		crashTask  int
		crashRound int
		codec      string
	}{
		{"reffil", 0, 1, ""},
		{"ewc", 1, 0, ""},
		{"lwf", 1, 0, ""},
		{"reffil", 0, 1, "delta"},
		{"ewc", 1, 0, "delta"},
		{"lwf", 1, 0, "delta"},
	}
	if testing.Short() {
		cases = []struct {
			method     string
			crashTask  int
			crashRound int
			codec      string
		}{{"reffil", 0, 1, ""}, {"lwf", 1, 0, "delta"}}
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%s/task%d_round%d", tc.method, tc.crashTask, tc.crashRound)
		if tc.codec != "" {
			name += "/" + tc.codec
		}
		t.Run(name, func(t *testing.T) {
			want := localReference(t, tc.method, family, domains)
			got := runTCPWithCrash(t, tc.method, family, domains, tc.crashTask, tc.crashRound, tc.codec)
			requireSameMatrix(t, "crashed-and-requeued", want, got)
		})
	}
}
