// Elastic-membership fault injection: the acceptance gates for join,
// re-join and liveness. Each scenario runs a full engine over loopback TCP
// while the membership changes under it — a fresh worker joins mid-run, a
// dead worker re-dials, a wedged worker stops acking without dying — and
// the completed run must be the synchronous in-process reference's,
// snapshot by snapshot. Jobs are placement-free deterministic computations
// and freshly admitted slots receive full state snapshots, so any
// divergence means the membership machinery corrupted state somewhere, and
// fltest.RequireSameRun names the (task, round) where it did.
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
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/fl/transport"
	"reffil/internal/fl/wire"
	"reffil/internal/telemetry"
)

// rawHello dials the coordinator with a raw frame endpoint, runs the join
// handshake with the given Hello, and returns the coordinator's HelloAck;
// the connection is closed before returning.
func rawHello(t *testing.T, addr string, h transport.Hello) transport.HelloAck {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.WriteHello(conn, h); err != nil {
		t.Fatal(err)
	}
	ack, err := transport.ReadHelloAck(conn)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestLateJoinMidRun admits a second worker between rounds of a running
// federation: the engine's checkpoint hook (which fires synchronously
// after every installed round, before the next dispatch) dials worker 1
// after round (0,0), so round (0,1) onward must fan out over both slots —
// the joiner receives a full state snapshot on its first broadcast — and
// the run must still be the single-source-of-truth local reference.
func TestLateJoinMidRun(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	got := fltest.Federate(t, "RefFiL", family, domains, fltest.Federation{
		Workers: plain(1),
		Hook: func(f *fltest.Fed, st fl.ResumeState) error {
			if st.NextTask == 0 && st.NextRound == 1 {
				// Round (0,0) just installed; admit the late joiner before
				// round (0,1) dispatches.
				f.Join(fltest.Worker{})
			}
			return nil
		},
	})
	fltest.RequireSameRun(t, "late-join", fltest.Reference(t, "RefFiL", family, domains), got.Run)
	if got.Live != 2 {
		t.Fatalf("live workers after late join = %d, want 2", got.Live)
	}
	if got.Trained[1] == 0 {
		t.Fatal("late joiner trained no jobs — it was never dispatched to")
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
			// Worker slot 0 crashes after its first ack of round (0,0),
			// then re-dials with the same Executor and serves on; the
			// survivors stay alive throughout.
			workers := append([]fltest.Worker{redialer(0, 0)}, plain(tc.survivors)...)
			got := fltest.Federate(t, "RefFiL", family, domains, fltest.Federation{
				Workers: workers,
				Codec:   tc.codec,
				Hook:    awaitLiveBefore(0, 1, tc.survivors+1),
			})
			fltest.RequireSameRun(t, "crash-and-redial", fltest.Reference(t, "RefFiL", family, domains), got.Run)
			if got.Live != tc.survivors+1 {
				t.Fatalf("live workers after re-join = %d, want %d (survivors + re-dialed)", got.Live, tc.survivors+1)
			}
			requireAllPatchUploads(t, got.Stats)
		})
	}
}

// redialer is a worker that crashes after its first ack of round (task,
// round) and re-dials at once.
func redialer(task, round int) fltest.Worker {
	return fltest.Worker{Kind: fltest.CrashAfterAck, Task: task, Round: round,
		Redial: func(*transport.Coordinator) bool { return true }}
}

// awaitLiveBefore is a snapshot hook that holds round (task, round) until
// live workers are live — a crashed worker's re-dial admitted, so it
// deterministically rejoins the fan-out.
func awaitLiveBefore(task, round, live int) func(*fltest.Fed, fl.ResumeState) error {
	return func(f *fltest.Fed, st fl.ResumeState) error {
		if st.NextTask == task && st.NextRound == round {
			return f.Coord.AwaitLive(live, 10*time.Second)
		}
		return nil
	}
}

// TestHeartbeatDetectsWedgedWorker wedges a worker without killing it: an
// endpoint that advertises a 75 ms heartbeat in its Hello, so the
// coordinator reads its slot under a 300 ms deadline, pongs until its first
// broadcast arrives, then keeps reading broadcasts but never acks a job nor
// sends a pong. Without heartbeats the coordinator would wait on the slot
// forever — no read error ever arrives. With them the slot's read deadline
// expires within 4x the advertised interval, the worker is marked dead with
// a job in hand, its jobs re-queue on the survivor (some round takes more
// than one attempt), and the run is the reference's.
func TestHeartbeatDetectsWedgedWorker(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	start := time.Now()
	var attempts atomic.Int64
	// Slot 0 is the survivor, slot 1 the wedge.
	got := fltest.Federate(t, "RefFiL", family, domains, fltest.Federation{
		Workers: []fltest.Worker{{}, {Kind: fltest.Wedged, Heartbeat: 75 * time.Millisecond}},
		OnRound: func(rs transport.RoundStats) {
			if int64(rs.Attempts) > attempts.Load() {
				attempts.Store(int64(rs.Attempts))
			}
		},
	})
	// Detection is deadline-bounded, not run-length-bounded: the whole run
	// — including the one round that waited out the wedge — must finish in
	// bounded time rather than hanging on the silent slot.
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Fatalf("run took %v — wedge detection did not bound the wait", elapsed)
	}
	fltest.RequireSameRun(t, "wedged-worker", fltest.Reference(t, "RefFiL", family, domains), got.Run)
	if got.Live != 1 {
		t.Fatalf("live workers after wedge detection = %d, want 1", got.Live)
	}
	if a := attempts.Load(); a < 2 {
		t.Fatalf("most attempts of any round = %d, want a re-queued round: the wedge was found before it held a job", a)
	}
}

// TestEveryAdmittedSlotIsRead holds the coordinator to reading every slot
// from its handshake on, whether or not the slot is ever dealt a job. A
// worker that is admitted, never dealt a job and closes is counted dead
// (closes); one that advertises a 20 ms heartbeat and then falls silent
// with its connection open is unmasked as a wedge (wedges); and one that
// acks before it was sent any frame dies for it, while the run it joined
// goes on to be the reference's (stray_ack).
func TestEveryAdmittedSlotIsRead(t *testing.T) {
	// observed is a coordinator reporting to a fresh registry.
	observed := func(t *testing.T) (*transport.Coordinator, *telemetry.Registry) {
		coord, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = coord.Close() })
		reg := telemetry.NewRegistry()
		coord.SetTelemetry(telemetry.NewSink(reg, nil))
		return coord, reg
	}
	requireCounts := func(t *testing.T, reg *telemetry.Registry, want map[string]int64) {
		t.Helper()
		snap := reg.Snapshot()
		for name, n := range want {
			if got := int64(snap[name]); got != n {
				t.Errorf("%s = %d, want %d", name, got, n)
			}
		}
	}

	t.Run("closes", func(t *testing.T) {
		coord, reg := observed(t)
		w, err := transport.Dial(coord.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Accept(1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		_ = w.Close()
		if err := awaitLive(coord, 0); err != nil {
			t.Fatal(err)
		}
		requireCounts(t, reg, map[string]int64{"fed_worker_deaths_total": 1, "fed_workers_live": 0, "fed_worker_wedges_total": 0})
	})

	t.Run("wedges", func(t *testing.T) {
		coord, reg := observed(t)
		conn := rawJoin(t, coord, transport.Hello{Version: transport.ProtocolVersion, Heartbeat: 20 * time.Millisecond})
		defer conn.Close()
		if err := awaitLive(coord, 0); err != nil {
			t.Fatal(err)
		}
		requireCounts(t, reg, map[string]int64{"fed_worker_deaths_total": 1, "fed_workers_live": 0, "fed_worker_wedges_total": 1})
	})

	t.Run("stray_ack", func(t *testing.T) {
		family, err := data.NewFamily("pacs", 16)
		if err != nil {
			t.Fatal(err)
		}
		domains := family.Domains[:2]
		got := fltest.Federate(t, "Finetune", family, domains, fltest.Federation{
			Workers: plain(2),
			Hook: func(f *fltest.Fed, st fl.ResumeState) error {
				if st.NextTask != 0 || st.NextRound != 1 {
					return nil
				}
				// Slot 2 joins between rounds and acks job 0 before the next
				// round can deal it one; it must be dead before that round.
				conn := rawJoin(t, f.Coord, transport.Hello{Version: transport.ProtocolVersion, WorkerID: 2})
				defer conn.Close()
				stray := transport.Update{Version: transport.ProtocolVersion, WorkerID: 2, Ack: &transport.JobResult{Patch: &wire.Patch{}}}
				if err := transport.WriteUpdate(conn, stray); err != nil {
					return err
				}
				return awaitLive(f.Coord, 2)
			},
		})
		fltest.RequireSameRun(t, "stray-ack", fltest.Reference(t, "Finetune", family, domains), got.Run)
		if got.Live != 2 || got.Joined != 3 {
			t.Fatalf("workers live/ever = %d/%d, want 2/3 (the stray slot dead)", got.Live, got.Joined)
		}
	})
}

// rawJoin runs the join handshake with h on a raw connection, waits for the
// coordinator to admit it and returns the connection.
func rawJoin(t *testing.T, coord *transport.Coordinator, h transport.Hello) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteHello(conn, h); err != nil {
		t.Fatal(err)
	}
	if ack, err := transport.ReadHelloAck(conn); err != nil || ack.Error != "" {
		t.Fatalf("join failed: %v %q", err, ack.Error)
	}
	if err := coord.Accept(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return conn
}

// awaitLive waits up to 10s for the coordinator to count n live slots.
func awaitLive(coord *transport.Coordinator, n int) error {
	for ms := 0; coord.NumLive() != n; ms++ {
		if ms == 10000 {
			return fmt.Errorf("%d slots live 10s on, want %d", coord.NumLive(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// TestCoordinatorResumeOverTCP is the coordinator-crash acceptance gate:
// a federation is killed mid-run — the engine aborts right after the
// checkpoint at (task 1, round 1) persists, the coordinator closes, the
// workers lose their connections — and a completely fresh process
// (coordinator, pipeline, algorithm, engine, workers) resumes from the
// snapshot. The killed run must be the reference's up to the kill, and the
// resumed run the reference's from there on: every snapshot's hashes, the
// matrix, final weights and wire state bit for bit.
func TestCoordinatorResumeOverTCP(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	want := fltest.Reference(t, "RefFiL", family, domains)
	errKilled := errors.New("injected coordinator kill")

	// Phase 1: run until the (1,1) checkpoint lands, then die. The
	// workers' errors are the expected collateral of the kill.
	killed := fltest.Federate(t, "RefFiL", family, domains, fltest.Federation{
		Workers: plain(2),
		Hook: func(_ *fltest.Fed, st fl.ResumeState) error {
			if st.NextTask == 1 && st.NextRound == 1 {
				return errKilled
			}
			return nil
		},
		WantErr: func(err error) bool { return errors.Is(err, errKilled) },
	})
	fltest.RequireSameRun(t, "killed", want, killed.Run)
	snapshot := killed.Snapshots[len(killed.Snapshots)-1]
	if snapshot.NextTask != 1 || snapshot.NextRound != 1 {
		t.Fatalf("kill point snapshot at (%d,%d), want (1,1)", snapshot.NextTask, snapshot.NextRound)
	}

	// Phase 2: a fresh everything, resuming from the snapshot.
	resumed := fltest.Federate(t, "RefFiL", family, domains, fltest.Federation{Workers: plain(2), Resume: &snapshot})
	fltest.RequireSameRun(t, "resumed", want, resumed.Run)
}

// TestJoinWaitSoleWorkerRedial covers the moment elastic membership exists
// for: the only worker crashes mid-round, so its unfinished jobs have no
// survivor to re-queue on. With JoinWait set the coordinator waits for the
// re-dial — the worker keeps its Executor across the reconnect, as
// fedworker -rejoin does — re-queues the stranded jobs onto the fresh slot
// behind a full snapshot, and the run is the local reference's; with
// JoinWait zero the same crash fails the run at once.
func TestJoinWaitSoleWorkerRedial(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	for _, tc := range []struct {
		name     string
		joinWait time.Duration
	}{
		{"rejoin_within_window", 30 * time.Second},
		{"fail_fast", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The sole worker crashes after its first ack of round (0,1). It
			// stays away until the coordinator has seen the death, and a
			// little longer, so the stranded jobs really meet an empty
			// federation; without a window there is nothing to re-join.
			sole := fltest.Worker{Kind: fltest.CrashAfterAck, Task: 0, Round: 1, Redial: func(coord *transport.Coordinator) bool {
				for coord.NumLive() > 0 {
					time.Sleep(5 * time.Millisecond)
				}
				if tc.joinWait == 0 {
					return false
				}
				time.Sleep(100 * time.Millisecond)
				return true
			}}
			fed := fltest.Federation{Workers: []fltest.Worker{sole}, JoinWait: tc.joinWait}
			if tc.joinWait == 0 {
				fed.WantErr = func(err error) bool { return strings.Contains(err.Error(), "no live workers") }
			}
			got := fltest.Federate(t, "RefFiL", family, domains, fed)
			fltest.RequireSameRun(t, "sole-worker "+tc.name, fltest.Reference(t, "RefFiL", family, domains), got.Run)
			if tc.joinWait == 0 {
				return
			}
			if got.Live != 1 || got.Joined != 2 {
				t.Fatalf("workers live/ever = %d/%d, want 1/2 (crashed slot + re-dialed slot)", got.Live, got.Joined)
			}
			requireAllPatchUploads(t, got.Stats)
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
