package fltest

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/telemetry"
)

// WorkerKind is how a worker of a loopback federation behaves.
type WorkerKind int

const (
	// Plain serves every broadcast through its Executor.
	Plain WorkerKind = iota
	// CrashAfterAck serves like Plain until round (Task, Round), and severs
	// its connection right after its first ack of that round.
	CrashAfterAck
	// DieOnJobs serves like Plain until the broadcast of round (Task,
	// Round) that carries jobs, and severs its connection on receiving it,
	// before acking any.
	DieOnJobs
	// Wedged joins with a Hello that advertises Heartbeat and pongs on it
	// until its first broadcast arrives; from then on it never writes again
	// — no ack, no pong, no close — while it drains every broadcast, so only
	// the coordinator's read deadline can unmask it, with a job in hand.
	Wedged
)

// Worker describes one worker of a loopback federation. Every worker but a
// Wedged one runs an Executor of one training goroutine around its own
// instance of the run's method.
type Worker struct {
	Kind WorkerKind
	// Task and Round are the round a CrashAfterAck or DieOnJobs worker
	// dies in.
	Task, Round int
	// Redial, for a CrashAfterAck worker, is asked once the crash has
	// happened; if it returns true the worker resets its Executor's stream
	// state and dials again — keeping the Executor and its shard cache, as
	// fedworker -rejoin does — and serves on as a Plain worker.
	Redial func(coord *transport.Coordinator) bool
	// Heartbeat is the interval a Wedged worker's Hello advertises.
	Heartbeat time.Duration
}

// Federation configures a loopback federation: a coordinator on
// 127.0.0.1, its workers dialed one at a time in order (so worker i holds
// slot i), a transport.Pipeline and an engine under Config.
type Federation struct {
	Workers []Worker
	// Codec, when set, is named through Pipeline.UseCodec, as the
	// benchmark names it.
	Codec string
	// JoinWait is the Pipeline's.
	JoinWait time.Duration
	// Sink, when non-nil, is attached wherever fedserver attaches its
	// telemetry: the coordinator, which the pipeline reports through, and
	// the engine.
	Sink *telemetry.Sink
	// OnRound is the Pipeline's.
	OnRound func(transport.RoundStats)
	// AckDelay, when positive, makes every worker sleep this long before
	// it sends each ack: slow workers, built from the test side.
	AckDelay time.Duration
	// Resume, when non-nil, is the snapshot the run resumes from.
	Resume *fl.ResumeState
	// Hook, when non-nil, runs at every snapshot after the transcript
	// recorder, with the federation in flight; its error aborts the run.
	Hook func(f *Fed, st fl.ResumeState) error
	// WantErr, when non-nil, requires the run to fail with an error it
	// accepts. The Run then holds the transcript as far as the run got,
	// and a Plain worker's error is the failure's collateral, not checked.
	WantErr func(error) bool
}

// Fed is a federation in flight.
type Fed struct {
	Coord    *transport.Coordinator
	t        testing.TB
	method   string
	family   *data.Family
	domains  []string
	ackDelay time.Duration
	workers  []*worker
}

// worker is a running worker's bookkeeping.
type worker struct {
	kind WorkerKind
	// done reports the worker's end: nil when it behaved as its kind says.
	done    chan error
	trained atomic.Int64
}

// FedRun is what a loopback federation leaves.
type FedRun struct {
	Run
	// Stats is the Pipeline's wire accounting once it is closed.
	Stats transport.Stats
	// Live and Joined are the coordinator's live and ever-admitted slot
	// counts when the run ended.
	Live, Joined int
	// Trained is each worker's count of acked jobs, in join order.
	Trained []int64
}

// Federate runs method over a loopback federation. It fails the test if
// the run fails (unless WantErr accepts the failure), if a worker did not
// behave as its kind says, or if the federation does not shut down cleanly:
// after a successful run every slot must be dead within 10s of the
// workers' exit.
func Federate(t testing.TB, method string, family *data.Family, domains []string, opt Federation) FedRun {
	t.Helper()
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetTelemetry(opt.Sink)
	f := &Fed{Coord: coord, t: t, method: method, family: family, domains: domains, ackDelay: opt.AckDelay}
	for _, w := range opt.Workers {
		f.Join(w)
	}

	alg := NewMethod(t, method, family, domains)
	pl, err := transport.NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	pl.OnRound, pl.JoinWait = opt.OnRound, opt.JoinWait
	if opt.Codec != "" {
		if err := pl.UseCodec(opt.Codec); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := fl.NewEngineWithRunner(Config(), alg, pl)
	if err != nil {
		t.Fatal(err)
	}
	eng.Telemetry = opt.Sink
	eng.Resume = opt.Resume
	var hook func(fl.ResumeState) error
	if opt.Hook != nil {
		hook = func(st fl.ResumeState) error { return opt.Hook(f, st) }
	}
	run, runErr := Execute(t, eng, alg, family, domains, hook)
	switch {
	case runErr != nil && (opt.WantErr == nil || !opt.WantErr(runErr)):
		t.Fatalf("%s run over loopback TCP failed in %s: %v", method, run.stoppedIn(), runErr)
	case runErr == nil && opt.WantErr != nil:
		t.Fatalf("%s run over loopback TCP finished, want it to fail", method)
	}
	out := FedRun{Run: run, Live: coord.NumLive(), Joined: coord.NumWorkers()}

	if err := pl.Close(); err != nil && runErr == nil {
		t.Fatal(err)
	}
	if runErr == nil {
		if err := coord.Shutdown(); err != nil {
			t.Fatal(err)
		}
	} else {
		_ = coord.Close()
	}
	out.Stats = pl.Stats()
	for id, w := range f.workers {
		if err := <-w.done; err != nil && !(runErr != nil && w.kind == Plain) {
			t.Fatalf("worker %d: %v", id, err)
		}
		out.Trained = append(out.Trained, w.trained.Load())
	}
	if runErr == nil {
		// The workers have left; wait until every slot's reader has seen its
		// connection close, so a goodbye that markDead counted as a death
		// reaches the Sink before the deferred Close ends the coordinator.
		for ms := 0; coord.NumLive() > 0; ms++ {
			if ms == 10000 {
				t.Fatalf("%d slots still live 10s after every worker left", coord.NumLive())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return out
}

// Join dials one more worker into the federation and waits for the
// coordinator to admit it. A hook may call it between rounds.
func (f *Fed) Join(spec Worker) {
	f.t.Helper()
	id := len(f.workers)
	w := &worker{kind: spec.Kind, done: make(chan error, 1)}
	f.workers = append(f.workers, w)
	if spec.Kind == Wedged {
		f.wedge(id, spec.Heartbeat, w.done)
	} else {
		ex, err := transport.NewExecutor(NewMethod(f.t, f.method, f.family, f.domains), 1)
		if err != nil {
			f.t.Fatal(err)
		}
		conn, err := transport.Dial(f.Coord.Addr(), id)
		if err != nil {
			f.t.Fatal(err)
		}
		go func() { w.done <- f.serve(id, conn, ex, spec, w) }()
	}
	if err := f.Coord.Accept(1, 10*time.Second); err != nil {
		f.t.Fatal(err)
	}
}

// serve runs worker id on conn until the coordinator shuts it down or, for
// a crashing kind, until its crash, after which it may re-dial.
func (f *Fed) serve(id int, conn *transport.Worker, ex *transport.Executor, spec Worker, w *worker) error {
	var crashed atomic.Bool
	handle := func(b transport.Broadcast, emit func(transport.JobResult) error) error {
		at := spec.Kind != Plain && !crashed.Load() && b.Task == spec.Task && b.Round == spec.Round
		if at && spec.Kind == DieOnJobs && len(b.Jobs) > 0 {
			crashed.Store(true)
			_ = conn.Close()
			return fmt.Errorf("injected crash on task %d round %d's jobs", b.Task, b.Round)
		}
		return ex.Handle(b, func(jr transport.JobResult) error {
			time.Sleep(f.ackDelay)
			w.trained.Add(1)
			if err := emit(jr); err != nil {
				return err
			}
			if at && spec.Kind == CrashAfterAck {
				crashed.Store(true)
				if err := conn.Close(); err != nil {
					return err
				}
				return fmt.Errorf("injected crash after first ack of task %d round %d", b.Task, b.Round)
			}
			return nil
		})
	}
	err := conn.Serve(handle)
	_ = conn.Close()
	if spec.Kind == Plain {
		return err
	}
	if !crashed.Load() {
		return fmt.Errorf("the crash was never injected (Serve returned %v)", err)
	}
	if spec.Redial == nil || !spec.Redial(f.Coord) {
		return nil
	}
	ex.ResetStream()
	again, err := transport.Dial(f.Coord.Addr(), id)
	if err != nil {
		return err
	}
	defer again.Close()
	return again.Serve(handle)
}

// wedge joins worker id through a relay: a real worker runs the handshake,
// advertising heartbeat, pongs through the relay, and closes on its first
// broadcast; the relay keeps the coordinator's end of the connection open,
// drains every broadcast sent to it and never writes again. done reports
// the relay's end, once the coordinator has closed that connection.
func (f *Fed) wedge(id int, heartbeat time.Duration, done chan<- error) {
	f.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.t.Fatal(err)
	}
	go func() {
		down, err := ln.Accept()
		_ = ln.Close()
		if err != nil {
			done <- err
			return
		}
		up, err := net.Dial("tcp", f.Coord.Addr())
		if err != nil {
			_ = down.Close()
			done <- err
			return
		}
		defer up.Close()
		// The Hello and the pongs, until the worker closes; then nothing
		// more.
		pongs := make(chan struct{})
		go func() {
			defer close(pongs)
			_, _ = io.Copy(up, down)
		}()
		// The HelloAck and the first broadcast, until a write finds the
		// worker gone; then drain.
		_, _ = io.Copy(down, up)
		_ = down.Close()
		<-pongs
		_, _ = io.Copy(io.Discard, up)
		done <- nil
	}()
	w, err := transport.DialWith(ln.Addr().String(), id, transport.DialOptions{Heartbeat: heartbeat})
	if err != nil {
		_ = ln.Close()
		f.t.Fatal(err)
	}
	// Serve returns once the first broadcast, or Shutdown's Done, has
	// arrived and the worker has closed.
	go func() {
		_ = w.Serve(func(transport.Broadcast, func(transport.JobResult) error) error { return w.Close() })
		_ = w.Close()
	}()
}
