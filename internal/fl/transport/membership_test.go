// Elastic-membership fault injection (protocol v7): the acceptance gates
// for join, re-join and liveness. Each scenario runs a full engine over
// loopback TCP while the membership changes under it — a fresh worker
// joins mid-run, a dead worker re-dials, a wedged worker stops acking
// without dying — and the completed run's accuracy matrix must equal the
// synchronous in-process reference bit for bit. Jobs are placement-free
// deterministic computations and freshly admitted slots receive full
// state snapshots, so any divergence means the membership machinery
// corrupted state somewhere.
package transport_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/fl/transport"
	"reffil/internal/model"
)

// rawHello dials the coordinator with a raw frame endpoint, runs the join
// handshake with the given Hello, and returns the coordinator's HelloAck;
// the connection is closed before returning.
func rawHello(t *testing.T, addr string, h transport.Hello) transport.HelloAck {
	t.Helper()
	conn, ack := rawDialHello(t, addr, h)
	_ = conn.Close()
	return ack
}

// rawJoin is rawHello for endpoints that go on speaking: it fails the test
// if the handshake is refused and returns the open connection.
func rawJoin(t *testing.T, addr string, h transport.Hello) net.Conn {
	t.Helper()
	conn, ack := rawDialHello(t, addr, h)
	if ack.Error != "" {
		_ = conn.Close()
		t.Fatalf("join rejected: %q", ack.Error)
	}
	return conn
}

func rawDialHello(t *testing.T, addr string, h transport.Hello) (net.Conn, transport.HelloAck) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteHello(conn, h); err != nil {
		_ = conn.Close()
		t.Fatal(err)
	}
	ack, err := transport.ReadHelloAck(conn)
	if err != nil {
		_ = conn.Close()
		t.Fatal(err)
	}
	return conn, ack
}

// dialServe dials a fresh worker with its own Executor and serves it on a
// background goroutine, returning the Serve error channel and a counter of
// jobs it trained.
func dialServe(t *testing.T, coord *transport.Coordinator, method string, family *data.Family, nTasks, id int) (<-chan error, *atomic.Int64) {
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
	trained := &atomic.Int64{}
	go func() {
		defer w.Close()
		done <- w.Serve(func(b transport.Broadcast, emit func(transport.JobResult) error) error {
			return ex.Handle(b, func(jr transport.JobResult) error {
				trained.Add(1)
				return emit(jr)
			})
		})
	}()
	if err := coord.Accept(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return done, trained
}

// serveCrashing dials worker id with a fresh Executor for method and serves
// it on a background goroutine, severing the connection right after the
// worker's first ack of round (crashTask, crashRound). If redial is nil —
// or returns false once the crash has happened — the worker stays dead;
// otherwise it resets the Executor's stream state and dials again with it
// (shard cache kept), exactly as fedworker -rejoin does, and serves on. The channel reports a
// crash that was never injected, a failed re-dial, or the final Serve's
// error.
func serveCrashing(t *testing.T, coord *transport.Coordinator, method string, family *data.Family, nTasks, id, crashTask, crashRound int, redial func() bool) <-chan error {
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
			if b.Task != crashTask || b.Round != crashRound {
				return ex.Handle(b, emit)
			}
			return ex.Handle(b, func(jr transport.JobResult) error {
				if err := emit(jr); err != nil {
					return err
				}
				if err := w.Close(); err != nil {
					return err
				}
				return fmt.Errorf("injected crash after first ack of task %d round %d", b.Task, b.Round)
			})
		})
		_ = w.Close()
		if err == nil {
			done <- fmt.Errorf("worker %d's Serve returned nil — the crash was never injected", id)
			return
		}
		if redial == nil || !redial() {
			done <- nil
			return
		}
		ex.ResetStream()
		w2, err := transport.Dial(coord.Addr(), id)
		if err != nil {
			done <- err
			return
		}
		defer w2.Close()
		done <- w2.Serve(ex.Handle)
	}()
	if err := coord.Accept(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return done
}

// TestLateJoinMidRun admits a second worker between rounds of a running
// federation: the engine's checkpoint hook (which fires synchronously
// after every installed round, before the next dispatch) dials worker 1
// after round (0,0), so round (0,1) onward must fan out over both slots —
// the joiner receives a full state snapshot on its first broadcast — and
// the matrix must still equal the single-source-of-truth local reference.
func TestLateJoinMidRun(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	want := localRunOf(t, "RefFiL", family, domains)

	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	firstDone, _ := dialServe(t, coord, "RefFiL", family, len(domains), 0)

	alg, err := experiments.NewMethod("RefFiL", model.DefaultConfig(family.Classes), len(domains), 7)
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
	var lateDone <-chan error
	var lateTrained *atomic.Int64
	eng.Checkpoint = func(st fl.ResumeState) error {
		if st.NextTask == 0 && st.NextRound == 1 && lateDone == nil {
			// Round (0,0) just installed; admit the late joiner before
			// round (0,1) dispatches.
			lateDone, lateTrained = dialServe(t, coord, "RefFiL", family, len(domains), 1)
		}
		return nil
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatalf("run with mid-run join failed: %v", err)
	}
	requireSameMatrix(t, "late-join", want.A, mat.A)
	fltest.RequireSameFinal(t, "late-join", want.final, fltest.FinalOf(t, alg))
	if got := coord.NumLive(); got != 2 {
		t.Fatalf("live workers after late join = %d, want 2", got)
	}
	if lateTrained == nil || lateTrained.Load() == 0 {
		t.Fatal("late joiner trained no jobs — it was never dispatched to")
	}
	_ = runner.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("initial worker: %v", err)
	}
	if err := <-lateDone; err != nil {
		t.Fatalf("late joiner: %v", err)
	}
}

// TestDeadWorkerRedialRejoins kills a worker mid-round and has the same
// process re-dial: the crashed slot stays dead, the re-dial is admitted
// into a brand-new slot the coordinator holds no state for, and the worker
// — retaining its Executor and shard cache across the reconnect, exactly as
// fedworker -rejoin does — serves the rest of the run. The engine's
// checkpoint hook gates the next round on the re-admission so the re-joined
// worker deterministically participates. With one survivor the fresh slot
// is handed jobs at once, so its first frame is a full snapshot, and every
// upload (including the re-joined slot's, whose base is that snapshot) must
// be a patch. The delta case names the codec through UseCodec, as the
// benchmark does, and keeps two survivors, so the round after the re-join
// hands one job to each of the three live slots. With three survivors
// the round's three jobs go to them and the fresh slot — the highest index
// — is dealt none in any round, so it is sent no frame and the run
// finishes on the survivors.
func TestDeadWorkerRedialRejoins(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	for _, tc := range []struct {
		name, codec string
		survivors   int
	}{
		{"default", "", 1},
		{"delta", "delta", 2},
		{"idle_fresh_slot", "", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := localRunOf(t, "RefFiL", family, domains)

			coord, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			// Worker slot 0: crashes after its first ack of round (0,0),
			// then re-dials with the same Executor and serves on.
			rejoinErr := serveCrashing(t, coord, "RefFiL", family, len(domains), 0, 0, 0, func() bool { return true })

			// The survivors: normal executors, alive throughout.
			surviveErr := make([]<-chan error, tc.survivors)
			for i := range surviveErr {
				surviveErr[i], _ = dialServe(t, coord, "RefFiL", family, len(domains), 1+i)
			}

			alg, err := experiments.NewMethod("RefFiL", model.DefaultConfig(family.Classes), len(domains), 7)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := transport.NewPipeline(coord, alg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.codec != "" {
				if err := runner.UseCodec(tc.codec); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, runner)
			if err != nil {
				t.Fatal(err)
			}
			eng.Checkpoint = func(st fl.ResumeState) error {
				if st.NextTask == 0 && st.NextRound == 1 {
					// Hold round (0,1) until the crashed worker's re-dial
					// is admitted, so it deterministically rejoins the fan-out.
					return coord.AwaitLive(tc.survivors+1, 10*time.Second)
				}
				return nil
			}
			mat, err := eng.Run(family, domains)
			if err != nil {
				t.Fatalf("run with crash-and-redial failed: %v", err)
			}
			requireSameMatrix(t, "crash-and-redial", want.A, mat.A)
			fltest.RequireSameFinal(t, "crash-and-redial", want.final, fltest.FinalOf(t, alg))
			if got := coord.NumLive(); got != tc.survivors+1 {
				t.Fatalf("live workers after re-join = %d, want %d (survivors + re-dialed)", got, tc.survivors+1)
			}
			requireAllPatchUploads(t, runner.Stats())
			_ = runner.Close()
			if err := coord.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if err := <-rejoinErr; err != nil {
				t.Fatalf("re-joined worker: %v", err)
			}
			for i, ch := range surviveErr {
				if err := <-ch; err != nil {
					t.Fatalf("surviving worker %d: %v", 1+i, err)
				}
			}
		})
	}
}

// TestHeartbeatDetectsWedgedWorker wedges a worker without killing it: a
// raw frame endpoint that advertises a heartbeat in its Hello, keeps reading
// broadcasts, but never acks a job nor sends a pong. Pre-v7 the
// coordinator would block in recv forever — no read error ever arrives.
// With heartbeats the slot's read deadline expires within 4x the advertised
// interval, the worker is marked dead, its jobs re-queue on the survivor,
// and the run completes bit-identically.
func TestHeartbeatDetectsWedgedWorker(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	want := localRunOf(t, "RefFiL", family, domains)

	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Worker slot 0: the survivor, dialed first for deterministic slots.
	surviveErr, _ := dialServe(t, coord, "RefFiL", family, len(domains), 0)

	// Worker slot 1: the wedge — a raw endpoint that advertises a 75 ms
	// heartbeat in its Hello, so the coordinator reads its slot under a
	// 300 ms deadline, and then never writes a single frame: no acks, no
	// pongs, no close. Only that deadline can unmask it.
	wedgeDone := make(chan struct{})
	{
		conn := rawJoin(t, coord.Addr(), transport.Hello{
			Version:   transport.ProtocolVersion,
			WorkerID:  1,
			Heartbeat: 75 * time.Millisecond,
		})
		go func() {
			defer close(wedgeDone)
			defer conn.Close()
			// Keep draining broadcasts so the coordinator's sends never
			// block in TCP buffers; just never answer them.
			buf := make([]byte, 1<<16)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}()
		if err := coord.Accept(1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	alg, err := experiments.NewMethod("RefFiL", model.DefaultConfig(family.Classes), len(domains), 7)
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
	start := time.Now()
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatalf("run with wedged worker failed instead of detecting it: %v", err)
	}
	requireSameMatrix(t, "wedged-worker", want.A, mat.A)
	fltest.RequireSameFinal(t, "wedged-worker", want.final, fltest.FinalOf(t, alg))
	if got := coord.NumLive(); got != 1 {
		t.Fatalf("live workers after wedge detection = %d, want 1", got)
	}
	// Detection is deadline-bounded, not run-length-bounded: the whole run
	// — including the one round that waited out the wedge — must finish in
	// bounded time rather than hanging on the silent slot.
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Fatalf("run took %v — wedge detection did not bound the wait", elapsed)
	}
	_ = runner.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-surviveErr; err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	<-wedgeDone
}

// TestCoordinatorResumeOverTCP is the coordinator-crash acceptance gate:
// a federation is killed mid-run — the engine aborts right after the
// checkpoint at (task 1, round 1) persists, the coordinator closes, the
// workers lose their connections — and a completely fresh process
// (coordinator, pipeline, algorithm, engine, workers) resumes from the
// snapshot. The resumed run's matrix, final weights and wire state must
// equal the uninterrupted local reference's bit for bit.
func TestCoordinatorResumeOverTCP(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	want := localRunOf(t, "RefFiL", family, domains)
	errKilled := errors.New("injected coordinator kill")

	newAlg := func() fl.Algorithm {
		alg, err := experiments.NewMethod("RefFiL", model.DefaultConfig(family.Classes), len(domains), 7)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}

	// Phase 1: run until the (1,1) checkpoint lands, then die.
	var snapshot fl.ResumeState
	{
		coord, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w0, _ := dialServe(t, coord, "RefFiL", family, len(domains), 0)
		w1, _ := dialServe(t, coord, "RefFiL", family, len(domains), 1)
		alg := newAlg()
		runner, err := transport.NewPipeline(coord, alg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, runner)
		if err != nil {
			t.Fatal(err)
		}
		eng.Checkpoint = func(st fl.ResumeState) error {
			snapshot = st
			if st.NextTask == 1 && st.NextRound == 1 {
				return errKilled
			}
			return nil
		}
		if _, err := eng.Run(family, domains); !errors.Is(err, errKilled) {
			t.Fatalf("phase-1 run returned %v, want the injected kill", err)
		}
		_ = runner.Close()
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
		// The workers lose their connections mid-run; their errors are the
		// expected collateral of the kill, not failures.
		<-w0
		<-w1
	}
	if snapshot.NextTask != 1 || snapshot.NextRound != 1 {
		t.Fatalf("kill point snapshot at (%d,%d), want (1,1)", snapshot.NextTask, snapshot.NextRound)
	}

	// Phase 2: a fresh everything, resuming from the snapshot.
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	w0, _ := dialServe(t, coord, "RefFiL", family, len(domains), 0)
	w1, _ := dialServe(t, coord, "RefFiL", family, len(domains), 1)
	alg := newAlg()
	runner, err := transport.NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, runner)
	if err != nil {
		t.Fatal(err)
	}
	eng.Resume = &snapshot
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	requireSameMatrix(t, "resumed", want.A, mat.A)
	fltest.RequireSameFinal(t, "resumed", want.final, fltest.FinalOf(t, alg))
	_ = runner.Close()
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-w0; err != nil {
		t.Fatalf("resumed worker 0: %v", err)
	}
	if err := <-w1; err != nil {
		t.Fatalf("resumed worker 1: %v", err)
	}
}

// TestJoinWaitSoleWorkerRedial covers the moment elastic membership exists
// for: the only worker crashes mid-round, so its unfinished jobs have no
// survivor to re-queue on. With JoinWait set the coordinator waits for the
// re-dial — the worker keeps its Executor across the reconnect, as
// fedworker -rejoin does — re-queues the stranded jobs onto the fresh slot
// behind a full snapshot, and the run finishes bit-identical to the local reference; with JoinWait
// zero the same crash fails the run at once.
func TestJoinWaitSoleWorkerRedial(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	want := localRunOf(t, "RefFiL", family, domains)

	for _, tc := range []struct {
		name     string
		joinWait time.Duration
	}{
		{"rejoin_within_window", 30 * time.Second},
		{"fail_fast", 0},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			coord, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			// The sole worker crashes after its first ack of round (0,1). It
			// stays away until the coordinator has seen the death, and a
			// little longer, so the stranded jobs really meet an empty
			// federation; without a window there is nothing to re-join.
			workerErr := serveCrashing(t, coord, "RefFiL", family, len(domains), 0, 0, 1, func() bool {
				for coord.NumLive() > 0 {
					time.Sleep(5 * time.Millisecond)
				}
				if tc.joinWait == 0 {
					return false
				}
				time.Sleep(100 * time.Millisecond)
				return true
			})

			alg, err := experiments.NewMethod("RefFiL", model.DefaultConfig(family.Classes), len(domains), 7)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := transport.NewPipeline(coord, alg)
			if err != nil {
				t.Fatal(err)
			}
			runner.JoinWait = tc.joinWait
			eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, runner)
			if err != nil {
				t.Fatal(err)
			}
			mat, err := eng.Run(family, domains)
			if tc.joinWait == 0 {
				if err == nil || !strings.Contains(err.Error(), "no live workers") {
					t.Fatalf("run error = %v, want a no-live-workers failure", err)
				}
				_ = runner.Close()
				if err := <-workerErr; err != nil {
					t.Fatal(err)
				}
				return
			}
			if err != nil {
				t.Fatalf("run with sole-worker crash-and-redial failed: %v", err)
			}
			requireSameMatrix(t, "sole-worker redial", want.A, mat.A)
			fltest.RequireSameFinal(t, "sole-worker redial", want.final, fltest.FinalOf(t, alg))
			if live, ever := coord.NumLive(), coord.NumWorkers(); live != 1 || ever != 2 {
				t.Fatalf("workers live/ever = %d/%d, want 1/2 (crashed slot + re-dialed slot)", live, ever)
			}
			requireAllPatchUploads(t, runner.Stats())
			_ = runner.Close()
			if err := coord.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if err := <-workerErr; err != nil {
				t.Fatalf("re-joined worker: %v", err)
			}
		})
	}
}

// TestJoinRejectsVersionMismatch dials the coordinator with a raw Hello
// from the future: the join must be refused in the HelloAck — before the
// connection ever occupies a slot — and the coordinator must stay empty.
func TestJoinRejectsVersionMismatch(t *testing.T) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ack := rawHello(t, coord.Addr(), transport.Hello{Version: transport.ProtocolVersion + 1, WorkerID: 9})
	if ack.Error == "" {
		t.Fatalf("HelloAck = %+v, want a version rejection", ack)
	}
	if coord.NumWorkers() != 0 {
		t.Fatalf("rejected join still occupied a slot (%d workers)", coord.NumWorkers())
	}

	// A well-versioned Hello on the same coordinator is still admitted.
	if ack := rawHello(t, coord.Addr(), transport.Hello{Version: transport.ProtocolVersion}); ack.Error != "" {
		t.Fatalf("well-versioned join rejected: %q", ack.Error)
	}
	if err := coord.Accept(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
