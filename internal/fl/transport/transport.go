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
// into a brand-new slot whose first frame is a full snapshot. Workers that
// advertise a heartbeat stream Pong updates on it and the coordinator reads
// their slots under a deadline, so a silently wedged worker is detected
// within a bounded interval.
//
// Broadcasts are delta-encoded: each carries a versioned wire.Frame — a
// state patch against the base version the coordinator knows this worker
// holds, or a full snapshot when it holds none, plus the method's
// wire-state payload only when its bytes changed (see internal/fl/wire).
// Uploads are too: a worker answers each job with a lossless wire.Patch
// diffed against the round's broadcast base, which the coordinator mirrors
// per slot. Every connection is byte-counted (Stats/RoundStats).
//
// Rounds are synchronous and fault-tolerant: workers acknowledge each job
// as it finishes, so when a connection dies the coordinator keeps the
// acknowledged results and re-queues only the unfinished jobs on survivors
// (every job is a placement-free deterministic computation). A re-queue is
// one more broadcast on the survivor's frame stream: exactly one round is in
// flight, so the coordinator's encoder still holds that round's state, and
// the survivor's frame brings it from whatever version it holds — none, when
// it is current; a delta or a full snapshot, when it idled or just joined.
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
)

// ProtocolVersion is stamped in every frame header. Both ends reject a
// different version — at the handshake, and again on every Broadcast and
// Update — without reading the frame's body, which another revision may lay
// out differently. Bump it whenever the frame layout, a message's fields or
// the bytes inside one change meaning; the golden frames in frame_test.go
// fail until the bump is made.
//
// v12: messages are frames (frame.go) — Hello{WorkerID, Heartbeat},
// HelloAck{Slot, Error}, Broadcast{Task, Round, Done, Frame, Jobs}, and an
// Update as one of ack{WorkerID, JobResult}, done{WorkerID, Error} or
// pong{WorkerID}; every state dict in them is a wire.Patch{Full, Dense,
// Packed}, and every method payload (fl.WireStater, fl.UploadCoder) is a
// checkpoint dict. v11 also carried the broadcast's codec name.
const ProtocolVersion = 12

// Broadcast is a coordinator-to-worker message: one round's state and job
// assignment. A round normally sends one broadcast per worker; when a
// worker dies mid-round, survivors receive a follow-up broadcast for the
// same (Task, Round) carrying the re-queued jobs, its Frame built against
// the survivor's state like any other.
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
	// round: client id, group, round, and the domain/seed coordinates the
	// worker derives its data shard from. Workers with no jobs reply with
	// a bare Done update.
	Jobs []fl.JobSpec
	// Done tells workers to exit their serve loop.
	Done bool
}

// JobResult is one executed job's acknowledged reply.
type JobResult struct {
	// Index is the job's position in the broadcast's Jobs list; the
	// coordinator validates it when mapping results back to round order.
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

// Update is a worker-to-coordinator frame. A worker answers each broadcast
// with a stream of per-job acks — one Update holding exactly one JobResult,
// sent the moment that job finishes training — terminated by one final
// Update with Done set (and Error, if the handler failed). The per-job
// framing is what lets the coordinator keep a dead worker's completed
// results and re-queue only its unfinished jobs.
type Update struct {
	// Version is stamped by the worker and checked by the coordinator.
	Version  int
	WorkerID int
	// Results holds exactly one entry on an ack frame, none on the final
	// Done frame.
	Results []JobResult
	// Done marks the end of this worker's reply stream for the broadcast.
	Done bool
	// Error reports a worker-side failure for the round. It rides on the
	// final frame; the coordinator fails the round with it — worker logic
	// errors are deterministic, so re-queueing the job elsewhere would
	// fail identically.
	Error string
	// Pong marks a liveness heartbeat: sent on a timer by workers that
	// advertised a heartbeat interval in their Hello, consumed inside the
	// coordinator's receive loop without ever surfacing to the round layer.
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

// Coordinator runs the server side of a federation. Worker connections
// that fail are marked dead and skipped from then on — the round layer
// (Pipeline) re-queues their unfinished work.
type Coordinator struct {
	ln net.Listener
	mu sync.Mutex
	// joinCond (sharing mu) signals membership changes — admissions from
	// the background accept loop, and Close — to Accept/AwaitLive waiters.
	joinCond *sync.Cond
	workers  []*wireConn
	// joined counts admissions the background accept loop has ever made;
	// accepted is the cursor successive Accept calls have consumed from it.
	// Tracking a cursor instead of "joins since the call" keeps Accept
	// correct when a worker dials before Accept runs — with admission in
	// the background that ordering is routine.
	joined   int
	accepted int
	// closed marks the coordinator shut down: slot lookups error instead of
	// indexing a nil workers slice (Close may race a straggling round
	// goroutine's send/recv/markDead).
	closed bool
	// sentBytes/ackBytes count the round traffic across all connections:
	// broadcast frames written (counted before their first byte goes out)
	// and ack frames read, headers included — what the Pipeline's byte
	// accounting snapshots.
	sentBytes atomic.Int64
	ackBytes  atomic.Int64
	// tel records membership telemetry (joins, live-worker gauge, wedge
	// detections). Nil — the default — disables it; see SetTelemetry.
	tel *telemetry.Sink
}

type wireConn struct {
	conn net.Conn
	// out serializes sends; in is read by one goroutine at a time (the
	// handshake, then the slot's collector).
	out  frameWriter
	in   frameReader
	dead bool
	// heartbeat is the interval the slot's Hello advertised; immutable after
	// admission.
	heartbeat time.Duration
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
	c.joinCond = sync.NewCond(&c.mu)
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
// can mis-decode a round frame, then append a brand-new slot and answer
// with its HelloAck. Slots are append-only — a re-dialing worker gets a
// fresh slot whose lack of a base version makes its first frame a full
// snapshot, so re-joins are state-correct by construction. The HelloAck is
// encoded under mu, before the slot becomes visible to send/recv, so it
// always precedes the slot's first Broadcast on the stream.
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
	w.heartbeat = h.Heartbeat
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
	tel, live := c.tel, c.liveLocked()
	c.joinCond.Broadcast()
	c.mu.Unlock()
	tel.WorkerJoined(slot, h.WorkerID, live)
}

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
// the timeout elapses. It is the elastic-membership gate: round layers use
// it to wait out a re-dial instead of failing a round that momentarily has
// no workers.
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

// waitJoin blocks on joinCond — mu held — until ok() holds, the timeout
// elapses, or the coordinator closes. sync.Cond has no timed wait, so a
// timer broadcasts the condition at the deadline to wake the waiter.
func (c *Coordinator) waitJoin(timeout time.Duration, ok func() bool) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.joinCond.Broadcast()
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
		c.joinCond.Wait()
	}
	return nil
}

// SetTelemetry attaches a telemetry sink (nil-safe: a nil sink keeps
// telemetry off). The coordinator reports membership events through it —
// join handshakes, the live-worker gauge, and heartbeat wedge detections;
// round-level signals come from the Pipeline layer instead.
func (c *Coordinator) SetTelemetry(s *telemetry.Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = s
}

// telemetrySink reads the attached sink under mu (nil when telemetry is
// off — every sink method tolerates that).
func (c *Coordinator) telemetrySink() *telemetry.Sink {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tel
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
	return len(c.liveSlots())
}

// BytesTransferred reports the cumulative round traffic since the
// coordinator started: ack frames read from workers (uploads) and broadcast
// frames written to them, headers included. The handshake, heartbeats and
// the workers' closing Done frames are not counted: they move no state, and
// when a Done frame arrives relative to a round's last ack is a race.
func (c *Coordinator) BytesTransferred() (in, out int64) {
	return c.ackBytes.Load(), c.sentBytes.Load()
}

// liveSlots returns the slot indices of workers not marked dead.
func (c *Coordinator) liveSlots() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i, w := range c.workers {
		if !w.dead {
			out = append(out, i)
		}
	}
	return out
}

// markDead flags a worker slot as unusable and closes its connection. It
// is a no-op on a closed coordinator (Close already tore every connection
// down) and on an out-of-range slot.
func (c *Coordinator) markDead(slot int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || slot < 0 || slot >= len(c.workers) {
		return
	}
	w := c.workers[slot]
	if !w.dead {
		w.dead = true
		_ = w.conn.Close()
		c.tel.SetLiveWorkers(c.liveLocked())
	}
}

// slot returns the wire connection for a worker slot, or an error after
// Close (the workers slice is gone) or for an out-of-range index.
func (c *Coordinator) slot(i int) (*wireConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("transport: coordinator is closed")
	}
	if i < 0 || i >= len(c.workers) {
		return nil, fmt.Errorf("transport: no worker slot %d (have %d)", i, len(c.workers))
	}
	return c.workers[i], nil
}

// send encodes b — stamped with ProtocolVersion — to the given worker
// slot. A failed send marks the worker dead; a send after Close errors
// without touching anything.
func (c *Coordinator) send(slot int, b Broadcast) error {
	w, err := c.slot(slot)
	if err != nil {
		return err
	}
	b.Version = ProtocolVersion
	if err := w.out.writeBroadcast(&b, &c.sentBytes); err != nil {
		c.markDead(slot)
		return fmt.Errorf("transport: sending to worker %d: %w", slot, err)
	}
	return nil
}

// recv reads one round update from the given worker slot, consuming Pong
// heartbeats internally. Slots whose Hello advertised a heartbeat read
// under a deadline (re-armed per frame, so each Pong proves liveness): a
// wedged worker — connection open, nothing flowing — is marked dead when
// the deadline fires, within a bounded interval, instead of stalling the
// round until a read error that may never come. A failed decode marks the
// worker dead; a recv after Close errors without touching anything. The
// update's byte fields alias the slot's read buffer: the caller is done
// with them before its next recv.
func (c *Coordinator) recv(slot int) (Update, error) {
	w, err := c.slot(slot)
	if err != nil {
		return Update{}, err
	}
	// A slot that advertised no heartbeat reads without a deadline.
	timeout := 4 * w.heartbeat
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
			if timeout > 0 && errors.As(err, &ne) && ne.Timeout() {
				c.telemetrySink().WedgeDetected(slot)
			}
			c.markDead(slot)
			return Update{}, fmt.Errorf("transport: receiving from worker %d: %w", slot, err)
		}
		if u.Pong {
			continue
		}
		if len(u.Results) > 0 {
			c.ackBytes.Add(int64(n))
		}
		if timeout > 0 {
			_ = w.conn.SetReadDeadline(time.Time{})
		}
		return u, nil
	}
}

// Shutdown tells every live worker to exit its serve loop. It is
// best-effort by design: a worker that died after its last useful reply
// must not fail a completed run.
func (c *Coordinator) Shutdown() error {
	var firstErr error
	for _, slot := range c.liveSlots() {
		if err := c.send(slot, Broadcast{Done: true}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close shuts the coordinator and all worker connections down. It is
// idempotent, and concurrent or subsequent send/recv/markDead calls return
// errors (or no-op) instead of panicking on the discarded workers slice.
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
	c.joinCond.Broadcast()
	return c.ln.Close()
}

// Worker is the client side of a federation.
type Worker struct {
	id   int
	conn net.Conn
	// out serializes outgoing updates: Serve's job acks and final frames
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

// send writes one update onto the shared stream.
func (w *Worker) send(u Update) error {
	return w.out.writeUpdate(&u)
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
			if w.send(Update{Version: ProtocolVersion, WorkerID: w.id, Pong: true}) != nil {
				return
			}
		}
	}
}

// Serve processes broadcasts until the coordinator sends Done or the
// connection closes. handle receives each broadcast plus an emit function
// that streams one acknowledged JobResult back to the coordinator; Serve
// appends the final Done frame itself when handle returns. Outgoing frames
// are stamped with the worker id and ProtocolVersion. A broadcast from a
// different protocol version, or a handler error, is reported to the
// coordinator on the final frame and then surfaced as Serve's own error —
// the worker does not try to keep decoding a stream it may be misreading.
// The version gate runs before anything else is honored, including Done: a
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
		final := Update{WorkerID: w.id, Version: ProtocolVersion, Done: true}
		if b.Version != ProtocolVersion {
			fatal = fmt.Errorf("transport: worker %d speaks protocol v%d, coordinator sent v%d", w.id, ProtocolVersion, b.Version)
			final.Error = fatal.Error()
		} else if b.Done {
			return nil
		} else {
			emit := func(jr JobResult) error {
				return w.send(Update{WorkerID: w.id, Version: ProtocolVersion, Results: []JobResult{jr}})
			}
			if err := handle(b, emit); err != nil {
				fatal = fmt.Errorf("transport: worker %d handler: %w", w.id, err)
				final.Error = err.Error()
			}
		}
		if err := w.send(final); err != nil {
			if fatal != nil {
				// The handler/version failure is the real story — when the
				// coordinator is already gone the final frame always fails
				// too, and reporting only the send would mask the cause.
				return fmt.Errorf("%w (final frame not sent: %v)", fatal, err)
			}
			return fmt.Errorf("transport: worker %d send: %w", w.id, err)
		}
		if fatal != nil {
			return fatal
		}
	}
}

// Close closes the worker connection and stops its heartbeat goroutine.
func (w *Worker) Close() error {
	w.stopOnce.Do(func() { close(w.stop) })
	return w.conn.Close()
}
