// Package transport provides the networked federation path: a coordinator
// (fedserver) broadcasts global model state plus per-client job framing to
// workers over TCP, workers derive each job's shard locally, train, and
// stream back one acknowledged result per job, and the coordinator
// aggregates. Every message is one length-prefixed binary frame (frame.go):
// a fixed header with a hard length bound, then explicit fields. Every
// tensor inside a message is already bytes — a wire.Patch, or a method
// payload in the checkpoint dict format — which the frame writes from, and
// reads into, buffers that already exist; datasets never cross the wire at
// all (see fl.ShardSpec).
//
// The package plugs into the engine through Pipeline (the coordinator's
// fl.EachRunner) and Executor (the worker side): the full fl.Engine — the
// client-increment strategy, per-round selection, dropout, FedAvg and the
// method's server hooks — drives a real federation exactly as it drives
// the in-process worker pool, with bit-identical accuracy matrices for the
// same seed.
//
// Membership is elastic. Every connection opens with a Hello/HelloAck
// handshake against an accept loop that runs for the coordinator's whole
// lifetime, so a fresh or restarted worker can dial mid-run; it is admitted
// into a brand-new slot whose first frame is a full snapshot. The goroutine
// that ran a slot's handshake reads the slot from then until its connection
// ends, whether or not it is ever dealt a job, so every admitted worker's
// exit is seen. Workers that advertise a heartbeat stream Pong updates on
// it and that reader reads their slots under a deadline, so a silently
// wedged worker is detected within a bounded interval.
//
// Broadcasts are delta-encoded: each carries a versioned wire.Frame — a
// state patch against the base version the coordinator knows this worker
// holds, or a full snapshot when it holds none, plus the method's
// wire-state payload only when its bytes changed (see internal/fl/wire).
// Uploads are too: a worker answers each job with a lossless wire.Patch
// diffed against the round's broadcast base, which the coordinator mirrors
// per slot. The Pipeline counts every round's frames (Stats/RoundStats).
//
// Rounds are synchronous and fault-tolerant: workers acknowledge each job
// as it finishes, so when a connection dies the coordinator keeps the
// acknowledged results and re-queues only the unfinished jobs on survivors
// (every job is a placement-free deterministic computation). A re-queue is
// one more broadcast on the survivor's frame stream: exactly one round is in
// flight, so the coordinator's encoder still holds that round's state, and
// the survivor's frame brings it from whatever version it holds — none, when
// it is current; a delta or a full snapshot, when it lags or just joined.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"reffil/internal/fl"
	"reffil/internal/fl/wire"
	"reffil/internal/telemetry"
	"reffil/internal/tensor"
)

// ProtocolVersion is stamped in every frame header. Both ends reject a
// different version — at the handshake, and again on every Broadcast and
// Update — without reading the frame's body, which another revision may lay
// out differently. Bump it whenever the frame layout, a message's fields or
// the bytes inside one change meaning; the golden frames in frame_test.go
// fail until the bump is made.
//
// v13: messages are frames (frame.go) — Hello{WorkerID, Heartbeat},
// HelloAck{Slot, Error}, Broadcast{Task, Round, Done, Frame, Jobs} of
// {Index, JobSpec} entries, and an Update as one of ack{WorkerID, JobResult},
// fail{WorkerID, Error} or pong{WorkerID}; every state dict in them is a
// wire.Patch{Full, Dense, Packed}, and every method payload is a checkpoint
// dict. v12 named an acked job by its position in the broadcast, ended each
// reply with a done frame and sent stateless frames to slots without jobs.
const ProtocolVersion = 13

// Broadcast is a coordinator-to-worker message: one round's state and job
// assignment. A round sends one broadcast to each worker it deals a job to
// and none to the others; when a worker dies mid-round, survivors receive a
// follow-up broadcast for the same (Task, Round) carrying the re-queued
// jobs, its Frame built against the survivor's state like any other.
type Broadcast struct {
	// Version is the wire protocol revision; stamped by the coordinator,
	// checked by workers.
	Version     int
	Task, Round int
	// Frame is the versioned state update: a patch against the base
	// version this worker last acknowledged (or a full snapshot
	// when it has none), plus the method's wire-state payload
	// (fl.WireStater: LwF's distillation teacher, EWC's Fisher/anchor
	// maps, RefFiL's clustered prompt bank) — included only when its bytes
	// changed since this worker last loaded it.
	Frame wire.Frame
	// Jobs frames the local-training jobs assigned to this worker for the
	// round, each under its index in the round.
	Jobs []Job
	// Done tells workers to exit their serve loop.
	Done bool
}

// Job is one entry of a Broadcast's job list: the job's index in its round,
// set by the Pipeline and echoed by the ack, and the spec (client id, group,
// round, and the coordinates the worker derives its data shard from).
type Job struct {
	Index int
	Spec  fl.JobSpec
}

// JobResult is one executed job's acknowledged reply.
type JobResult struct {
	// Index is the job's index in its round, echoed from the broadcast's
	// Job entry; the coordinator settles the job it names.
	Index int
	// Patch is the trained replica's state (the FedAvg payload): a lossless
	// diff against the round's broadcast base — the dict both ends already
	// hold, the worker in its receive tracker and the coordinator in its
	// per-slot mirror — or, when the worker holds no base (which the
	// coordinator counts as an upload fallback), a complete snapshot with
	// Patch.Full set.
	Patch *wire.Patch
	// Upload is the method-specific upload, encoded by fl.UploadCoder
	// (empty when the method uploads nothing).
	Upload []byte
}

// Update is a worker-to-coordinator frame: exactly one of an ack, a fail
// or a pong. A worker answers each broadcast with one ack per job — one
// Update holding exactly one JobResult, sent the moment that job finishes
// training — and nothing else once they are sent. The per-job framing is
// what lets the coordinator keep a dead worker's completed results and
// re-queue only its unfinished jobs.
type Update struct {
	// Version is stamped by the worker and checked by the coordinator.
	Version  int
	WorkerID int
	// Ack is the one job result an ack frame carries; nil on a fail frame
	// and on a pong.
	Ack *JobResult
	// Error, set on a fail frame only, reports a worker-side failure — the
	// handler's error or a broadcast of another version — and fails the
	// round: worker logic errors are deterministic, so re-queueing the job
	// elsewhere would fail identically.
	Error string
	// Pong marks a liveness heartbeat: sent on a timer by workers that
	// advertised a heartbeat interval in their Hello, consumed by the slot's
	// reader without ever surfacing to the round layer.
	Pong bool
}

// Hello is the first frame on every worker connection: the membership
// handshake. The coordinator's background accept loop admits the
// connection into a fresh slot and answers with a HelloAck, so workers can
// join — or re-join — at any point in a run.
type Hello struct {
	// Version is the worker's protocol revision; the coordinator rejects a
	// mismatch in the HelloAck without admitting the connection.
	Version int
	// WorkerID is the worker's self-reported id (for logs and stats; slots
	// are assigned by the coordinator).
	WorkerID int
	// Heartbeat, when positive, is the interval on which this worker will
	// stream Pong updates. The coordinator arms a read deadline of 4x this
	// interval on the slot, so a silently wedged worker is detected within a
	// bounded interval.
	Heartbeat time.Duration
}

// HelloAck is the coordinator's handshake reply.
type HelloAck struct {
	// Version is the coordinator's protocol revision.
	Version int
	// Slot is the admitted worker slot. Slots are append-only: a re-dialing
	// worker gets a fresh slot (its old one stays dead) and, holding no
	// base version there, a full state snapshot on its first frame.
	Slot int
	// Error, when non-empty, reports a rejected handshake; the coordinator
	// closes the connection after sending it.
	Error string
}

// Coordinator runs the server side of a federation. It keeps one record
// per worker slot (wireConn), which the round layer (Pipeline) runs on too:
// a worker connection that fails is marked dead and skipped from then on,
// and the Pipeline re-queues its unfinished work.
type Coordinator struct {
	ln net.Listener
	// mu guards the slot table and the state of the Pipeline running on the
	// coordinator; cond (on mu) wakes every waiter — Accept/AwaitLive on an
	// admission or Close, and the Pipeline's waits (see Pipeline).
	mu      sync.Mutex
	cond    *sync.Cond
	workers []*wireConn
	// joined counts admissions the background accept loop has ever made;
	// accepted is the cursor successive Accept calls have consumed from it.
	// Tracking a cursor instead of "joins since the call" keeps Accept
	// correct when a worker dials before Accept runs — with admission in
	// the background that ordering is routine.
	joined   int
	accepted int
	// closed marks the coordinator shut down: slot lookups error instead of
	// indexing a nil workers slice (Close may race a straggling round
	// goroutine's send or a slot reader's markDead).
	closed bool
	// leaving marks Shutdown: the workers were told to exit, so a connection
	// that closes from then on is not counted as a death.
	leaving bool
	// pipeline is the one Pipeline running on the coordinator, set by
	// NewPipeline: the slot readers hand it every update but a pong, and
	// every death.
	pipeline *Pipeline
	// tel records membership telemetry (joins, live-worker gauge, deaths,
	// wedge detections) and the Pipeline's rounds. Nil — the default —
	// disables it; see SetTelemetry.
	tel *telemetry.Sink
}

// wireConn is one worker slot's record: its connection, whether it is dead,
// and the Pipeline's send and settle state for it.
type wireConn struct {
	conn net.Conn
	// out serializes sends; in is read by one goroutine, the one that ran
	// the slot's handshake and then reads it until its connection ends.
	out frameWriter
	in  frameReader
	// sendMu serializes a Pipeline send — frame, mirror advance, hold,
	// write — so the mirror follows wire order; tracker, the coordinator's
	// mirror of the worker's wire.Tracker, is only touched under it, or
	// read under the coordinator's mu while no send is in progress.
	sendMu  sync.Mutex
	tracker wire.Tracker
	// The rest is guarded by the coordinator's mu. dead is set by markDead
	// alone. held lists the jobs of the round in flight dealt to the slot
	// whose acks its reader has not read; base is the upload-decode base of
	// the slot's latest frame, the mirror's dict once the frame was built,
	// and nil until the slot's first frame.
	dead bool
	held []int
	base map[string]*tensor.Tensor
}

// Listen starts a coordinator on addr (e.g. "127.0.0.1:0") and its
// background accept loop: from this moment workers can dial — and
// re-dial — at any point, without a matching Accept call.
func Listen(addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	c := &Coordinator{ln: ln}
	c.cond = sync.NewCond(&c.mu)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// helloTimeout bounds the membership handshake: a connection that does not
// deliver its Hello within it is dropped without ever occupying a slot, so
// a port-scanning or wedged dialer cannot pin coordinator resources.
const helloTimeout = 10 * time.Second

// acceptLoop admits workers for the coordinator's whole lifetime:
// membership is elastic, so accepting is a background activity rather than
// a startup phase. Each connection handshakes on its own goroutine — a
// stalled dialer never blocks other joins. The loop exits when Close
// closes the listener.
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.admit(conn)
	}
}

// admit runs the join handshake on a fresh connection: decode the
// worker's Hello under a deadline, reject version mismatches before they
// can mis-decode a round frame, then append a brand-new slot, answer with
// its HelloAck and read the slot until its connection ends (read). Slots
// are append-only — a re-dialing worker gets a fresh slot whose lack of a
// base version makes its first frame a full snapshot, so re-joins are
// state-correct by construction. The HelloAck is encoded under mu, before
// the slot becomes visible to send, so it always precedes the slot's first
// Broadcast on the stream.
func (c *Coordinator) admit(conn net.Conn) {
	w := &wireConn{conn: conn, out: frameWriter{w: conn}, in: frameReader{r: conn}}
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	h, err := w.in.readHello()
	if err != nil {
		_ = conn.Close()
		return
	}
	if h.Version != ProtocolVersion {
		_ = w.out.writeHelloAck(HelloAck{Version: ProtocolVersion, Error: fmt.Sprintf("coordinator speaks protocol v%d, worker dialed with v%d", ProtocolVersion, h.Version)})
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	c.mu.Lock()
	if c.closed {
		// Close ran while this handshake was in flight: the coordinator's
		// connections are already torn down, so the fresh one must not be
		// appended (it would leak, and the worker would block on a
		// half-open conn forever).
		c.mu.Unlock()
		_ = conn.Close()
		return
	}
	slot := len(c.workers)
	if err := w.out.writeHelloAck(HelloAck{Version: ProtocolVersion, Slot: slot}); err != nil {
		c.mu.Unlock()
		_ = conn.Close()
		return
	}
	c.workers = append(c.workers, w)
	c.joined++
	c.tel.WorkerJoined(slot, h.WorkerID, c.liveLocked())
	c.cond.Broadcast()
	c.mu.Unlock()
	c.read(slot, w, 4*h.Heartbeat)
}

// read is the slot's one reader, from its handshake to its close. A slot
// whose Hello advertised a heartbeat reads under a timeout of 4x it,
// re-armed per frame, so each Pong proves liveness and a wedged worker —
// connection open, nothing flowing — dies within a bounded interval; a
// zero timeout reads without a deadline. Every update but a pong goes to
// settle. The reader ends at a read error, a fired deadline or an update
// that answers no frame (settle), and each ends the slot through
// workerDied, which marks it dead and deals the jobs it holds again.
func (c *Coordinator) read(slot int, w *wireConn, timeout time.Duration) {
	wedged := false
	for {
		if timeout > 0 {
			_ = w.conn.SetReadDeadline(time.Now().Add(timeout))
		}
		u, n, err := w.in.readUpdate()
		if err != nil {
			// A deadline-fired decode on a heartbeating slot is the wedge
			// detector going off: the connection is open but nothing flowed
			// for the bounded interval.
			var ne net.Error
			wedged = timeout > 0 && errors.As(err, &ne) && ne.Timeout()
			break
		}
		if !u.Pong && !c.settle(slot, w, u, n) {
			break
		}
	}
	if hold := holdRead.Load(); hold != nil {
		(*hold)(slot)
	}
	c.workerDied(slot, wedged)
}

// holdRead, set by tests, runs in a slot's reader once it has stopped
// reading, before the slot dies, given the slot: a test holds a reader
// there while a round deals the slot jobs.
var holdRead atomic.Pointer[func(slot int)]

// Accept blocks until n more workers — beyond those previous Accept calls
// already consumed — have completed the join handshake. Admission itself
// happens on the background accept loop, so a worker that dialed before
// Accept was called still counts; the timeout is a plain wait with no
// listener deadline armed (or left armed) at all, which also makes it
// listener-agnostic.
func (c *Coordinator) Accept(n int, timeout time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("transport: accepting on a closed coordinator")
	}
	target := c.accepted + n
	if err := c.waitJoin(timeout, func() bool { return c.joined >= target }); err != nil {
		return fmt.Errorf("transport: accepting worker %d/%d: %w", c.joined-c.accepted+1, n, err)
	}
	c.accepted = target
	return nil
}

// AwaitLive blocks until at least n workers are simultaneously live, or
// the timeout elapses. The Pipeline does not call it: its deal waits for a
// re-dial through waitJoin. A membership test's snapshot hook uses it to
// hold a round until a crashed worker's re-dial is admitted.
func (c *Coordinator) AwaitLive(n int, timeout time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("transport: awaiting workers on a closed coordinator")
	}
	if err := c.waitJoin(timeout, func() bool { return c.liveLocked() >= n }); err != nil {
		return fmt.Errorf("transport: awaiting %d live workers: %w", n, err)
	}
	return nil
}

// waitJoin blocks on cond — mu held — until ok() holds, the timeout
// elapses, or the coordinator closes. sync.Cond has no timed wait, so a
// timer broadcasts the condition at the deadline to wake the waiter.
func (c *Coordinator) waitJoin(timeout time.Duration, ok func() bool) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	for !ok() {
		if c.closed {
			return fmt.Errorf("coordinator closed while waiting")
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		c.cond.Wait()
	}
	return nil
}

// SetTelemetry attaches a telemetry sink (nil-safe: a nil sink keeps
// telemetry off). The coordinator reports membership events through it —
// join handshakes, the live-worker gauge, deaths and heartbeat wedge
// detections — and the Pipeline running on it its rounds, acks and
// re-queues.
func (c *Coordinator) SetTelemetry(s *telemetry.Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = s
}

// liveLocked counts non-dead workers. Caller holds mu.
func (c *Coordinator) liveLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// NumWorkers returns how many workers have ever connected.
func (c *Coordinator) NumWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// NumLive returns how many connected workers are still usable.
func (c *Coordinator) NumLive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked()
}

// liveSlots returns the slot indices of workers not marked dead. Caller
// holds mu.
func (c *Coordinator) liveSlots() []int {
	var out []int
	for i, w := range c.workers {
		if !w.dead {
			out = append(out, i)
		}
	}
	return out
}

// markDead flags a worker slot as unusable and closes its connection: the
// one place a slot dies, wherever the death is first seen — a send, the
// slot's reader (a read error, a wedge or a stray update) or the Pipeline.
// The first call counts the death to telemetry, unless Shutdown told the
// workers to leave. It is a no-op on a closed coordinator (Close already
// tore every connection down) and on an out-of-range slot. wedged reports a
// heartbeat deadline that fired.
func (c *Coordinator) markDead(slot int, wedged bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, err := c.slotLocked(slot)
	if err != nil || w.dead {
		return
	}
	w.dead = true
	_ = w.conn.Close()
	if c.leaving {
		return
	}
	if wedged {
		c.tel.WedgeDetected(slot)
	}
	c.tel.WorkerDead(slot)
	c.tel.SetLiveWorkers(c.liveLocked())
}

// slot returns the record of a worker slot, or an error after Close (the
// workers slice is gone) or for an out-of-range index.
func (c *Coordinator) slot(i int) (*wireConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slotLocked(i)
}

// slotLocked is slot with mu held.
func (c *Coordinator) slotLocked(i int) (*wireConn, error) {
	if c.closed {
		return nil, fmt.Errorf("transport: coordinator is closed")
	}
	if i < 0 || i >= len(c.workers) {
		return nil, fmt.Errorf("transport: no worker slot %d (have %d)", i, len(c.workers))
	}
	return c.workers[i], nil
}

// send encodes b — stamped with ProtocolVersion — to the given worker
// slot, adding the frame's size to sent (when non-nil) before its first
// byte goes out. A failed send marks the worker dead; a send after Close
// errors without touching anything.
func (c *Coordinator) send(slot int, b Broadcast, sent *atomic.Int64) error {
	w, err := c.slot(slot)
	if err != nil {
		return err
	}
	b.Version = ProtocolVersion
	if err := w.out.writeBroadcast(&b, sent); err != nil {
		c.markDead(slot, false)
		return fmt.Errorf("transport: sending to worker %d: %w", slot, err)
	}
	return nil
}

// Shutdown tells every live worker to exit its serve loop; a connection
// that closes from then on is a worker leaving, not a death. It is
// best-effort by design: a worker that died after its last useful reply
// must not fail a completed run.
func (c *Coordinator) Shutdown() error {
	c.mu.Lock()
	c.leaving = true
	live := c.liveSlots()
	c.mu.Unlock()
	var firstErr error
	for _, slot := range live {
		if err := c.send(slot, Broadcast{Done: true}, nil); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close shuts the coordinator and all worker connections down. It is
// idempotent, and concurrent or subsequent send/markDead calls return
// errors (or no-op) instead of panicking on the discarded workers slice;
// every slot reader then sees its connection end.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, w := range c.workers {
		_ = w.conn.Close()
	}
	c.workers = nil
	// Wake Accept/AwaitLive waiters so they observe closed; closing the
	// listener also ends the background accept loop.
	c.cond.Broadcast()
	return c.ln.Close()
}

// Worker is the client side of a federation.
type Worker struct {
	id   int
	conn net.Conn
	// out serializes outgoing updates: Serve's job acks and fail frame
	// interleave with the heartbeat goroutine's Pong frames on the one
	// stream. in is read by Serve alone.
	out frameWriter
	in  frameReader
	// stop ends the heartbeat goroutine; stopOnce makes Close idempotent.
	stop     chan struct{}
	stopOnce sync.Once
}

// DialOptions configures DialWith.
type DialOptions struct {
	// Timeout bounds both the TCP dial and the join handshake. Zero means
	// no bound — a half-open coordinator then hangs the worker forever, so
	// deployments should set it (cmd/fedworker defaults to 10s).
	Timeout time.Duration
	// Heartbeat, when positive, starts a background goroutine streaming
	// Pong updates on this interval, so the coordinator can bound its
	// wedged-worker detection with a read deadline. It runs independently
	// of job execution: a worker busy training still proves liveness — the
	// heartbeat distinguishes slow from wedged.
	Heartbeat time.Duration
}

// Dial connects a worker to the coordinator with default options.
func Dial(addr string, id int) (*Worker, error) {
	return DialWith(addr, id, DialOptions{})
}

// DialWith connects a worker to the coordinator and runs the join
// handshake — send Hello, await HelloAck — so version mismatches and
// rejections surface here, at dial time, instead of mid-round.
func DialWith(addr string, id int, opts DialOptions) (*Worker, error) {
	d := net.Dialer{Timeout: opts.Timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	w := &Worker{id: id, conn: conn, out: frameWriter{w: conn}, in: frameReader{r: conn}, stop: make(chan struct{})}
	if opts.Timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(opts.Timeout))
	}
	if err := w.out.writeHello(Hello{Version: ProtocolVersion, WorkerID: id, Heartbeat: opts.Heartbeat}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: worker %d hello: %w", id, err)
	}
	ack, err := w.in.readHelloAck()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: worker %d awaiting hello ack: %w", id, err)
	}
	_ = conn.SetDeadline(time.Time{})
	if ack.Error != "" {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: worker %d rejected at join: %s", id, ack.Error)
	}
	if ack.Version != ProtocolVersion {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: worker %d speaks protocol v%d, coordinator answered v%d", id, ProtocolVersion, ack.Version)
	}
	if opts.Heartbeat > 0 {
		go w.heartbeatLoop(opts.Heartbeat)
	}
	return w, nil
}

// heartbeatLoop streams Pong updates until Close or a send failure.
func (w *Worker) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if w.out.writeUpdate(&Update{Version: ProtocolVersion, WorkerID: w.id, Pong: true}) != nil {
				return
			}
		}
	}
}

// Serve processes broadcasts until the coordinator sends Done or the
// connection closes. handle receives each broadcast plus an emit function
// that streams one acknowledged JobResult back to the coordinator. Outgoing
// frames are stamped with the worker id and ProtocolVersion. A broadcast
// from a different protocol version, or a handler error, is reported to the
// coordinator on a fail frame and then surfaced as Serve's own error — the
// worker does not try to keep decoding a stream it may be misreading. The
// version gate runs before anything else is honored, including Done: a
// mismatched-version coordinator must not be able to silently shut a
// worker down (Shutdown stamps Done frames with the version like every
// other send). A broadcast's byte fields alias the connection's read buffer,
// which the next broadcast overwrites: handle is done with them when it
// returns, and emit is done with a JobResult when it returns.
func (w *Worker) Serve(handle func(b Broadcast, emit func(JobResult) error) error) error {
	for {
		b, err := w.in.readBroadcast()
		if err != nil {
			return fmt.Errorf("transport: worker %d receive: %w", w.id, err)
		}
		var fatal error
		fail := Update{WorkerID: w.id, Version: ProtocolVersion}
		if b.Version != ProtocolVersion {
			fatal = fmt.Errorf("transport: worker %d speaks protocol v%d, coordinator sent v%d", w.id, ProtocolVersion, b.Version)
			fail.Error = fatal.Error()
		} else if b.Done {
			return nil
		} else if err := handle(b, func(jr JobResult) error {
			return w.out.writeUpdate(&Update{WorkerID: w.id, Version: ProtocolVersion, Ack: &jr})
		}); err != nil {
			fatal = fmt.Errorf("transport: worker %d handler: %w", w.id, err)
			fail.Error = err.Error()
		}
		if fatal == nil {
			continue
		}
		if err := w.out.writeUpdate(&fail); err != nil {
			// The handler/version failure is the real story — when the
			// coordinator is already gone the fail frame always fails too,
			// and reporting only the send would mask the cause.
			return fmt.Errorf("%w (fail frame not sent: %v)", fatal, err)
		}
		return fatal
	}
}

// Close closes the worker connection and stops its heartbeat goroutine.
func (w *Worker) Close() error {
	w.stopOnce.Do(func() { close(w.stop) })
	return w.conn.Close()
}
