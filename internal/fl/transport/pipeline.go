package transport

import (
	"fmt"
	"sync"
	"time"

	"reffil/internal/fl"
	"reffil/internal/fl/wire"
	"reffil/internal/nn"
	"reffil/internal/telemetry"
	"reffil/internal/tensor"
)

// Pipeline is the transport-backed round runner: it fans one round's jobs
// out across the coordinator's live workers over TCP and hands the per-job
// acks back as they stream in, so an fl.Engine built on it runs every paper
// scenario multi-node with the same mechanics — and the same numbers — as
// the in-process pool. Rounds are synchronous, exactly one is in flight:
// RunEach returns when its last job has been handed over.
//
// Per round every live worker receives a versioned wire.Frame: per-key
// diffs against the base version the slot's mirror holds, with the method's
// encoded wire state (fl.WireStater) re-sent only when its bytes change, a
// full snapshot for workers with no usable base, and no state at all for
// workers without jobs. Uploads come back as wire.Patch too, reconstructed
// against the state the slot's mirror holds once the frame is built, into a
// wire.DecodeBuffer that the result's fl.Result.Release hands back for a
// later ack. Jobs are assigned round-robin by worker slot; assignment never
// affects results: each job is a self-contained deterministic computation
// (see fl.EachRunner), and the wire format is exact, so any placement
// produces the same bits.
//
// Each worker slot has a FIFO queue of the broadcasts it has yet to answer
// and a dedicated collector goroutine. The queue outlives a round: a
// worker's closing Done frame trails its last ack, so it usually arrives
// after the next round's broadcast is already queued behind it.
//
// A worker connection dying does not fail the run: the dead worker's
// acknowledged results are kept and its unfinished jobs are redistributed
// round-robin over the survivors, each batch as one more broadcast of the
// round built like the dispatch's: against the survivor's mirror, from the
// round state the encoder still holds. A survivor already at the round's
// version gets a frame with no state, an idle one the delta (and payload)
// it lags by, a fresh joiner a full snapshot. Only connection failures
// re-queue; an error the worker itself reports is deterministic and fails
// the run (re-running the job elsewhere would fail identically). A dead
// worker's mirror dies with its slot, so a re-dial starts from a full
// snapshot.
//
// Determinism: a result is identified by its job index and the engine folds
// in job-index order regardless of arrival order, so the same results are
// folded in the same order with the same bits whatever the wall-clock
// schedule — the Pipeline matches the in-process engine bit for bit.
type Pipeline struct {
	coord *Coordinator
	alg   fl.Algorithm
	// OnRound, when non-nil, receives each round's wire statistics once its
	// last ack lands. Called from a collector goroutine, outside the
	// pipeline's locks, possibly after RunEach has returned.
	OnRound func(RoundStats)
	// JoinWait, when positive, is how long a moment with no live workers —
	// at a round's start, or when the last live worker dies holding jobs —
	// waits for the coordinator's background accept loop to admit a
	// (re-)joining worker (elastic membership) before failing the run. Zero
	// keeps the fail-fast behaviour.
	JoinWait time.Duration
	// Telemetry, when non-nil, receives round observations, per-worker ack
	// latencies, death and requeue events. Set before the first round; nil
	// (the default) keeps the hot path allocation-free.
	Telemetry *telemetry.Sink

	// enc holds the round in flight's state and payload until the next
	// dispatch, so re-queues frame against it too.
	enc wire.Encoder

	// mu guards the round in flight, per-slot queues, the fatal flag and
	// the cumulative stats; cond (on mu) wakes await when a job settles.
	mu     sync.Mutex
	cond   *sync.Cond
	cur    *roundFlight
	slots  map[int]*slotState
	fatal  error
	closed bool
	// free holds the idle upload decode buffers. Each ack is decoded into
	// one taken from here (or a new one when it is empty), and its result's
	// Release puts it back, so the list never outgrows the number of results
	// the engine held at once.
	free  []*wire.DecodeBuffer
	stats Stats
	// startIn/startOut snapshot the coordinator's byte counters at the
	// first round's dispatch: the zero point of the cumulative byte totals.
	startIn, startOut int64
	everStarted       bool
}

// flight is one dispatched job's settlement state.
type flight struct {
	res  fl.Result
	done bool
}

// roundFlight is the coordinator-side state of the round in flight: one
// flight per job and the round's statistics.
type roundFlight struct {
	task, round int
	jobs        []flight
	remaining   int
	rs          RoundStats
	start       time.Time
	// startIn/startOut are the coordinator's byte counters at dispatch.
	startIn, startOut int64
}

// batch is one broadcast's worth of jobs queued on a worker slot, FIFO: the
// worker answers broadcasts in order, so the head batch is the one whose
// acks arrive next.
type batch struct {
	rf    *roundFlight
	specs []fl.JobSpec
	idxs  []int                     // specs[k] is job idxs[k] of rf
	base  map[string]*tensor.Tensor // upload-decode base for this broadcast
	acked int
}

// slotState is one worker slot's send/collect machinery. sendMu serializes
// sendBatch — frame, mirror advance, enqueue, send — so the mirror and the
// queue follow wire order; tracker, the coordinator's mirror of the
// worker's wire.Tracker, is only touched under it.
type slotState struct {
	sendMu     sync.Mutex
	tracker    wire.Tracker
	queue      []*batch
	collecting bool
	dead       bool
}

// NewPipeline wraps a coordinator and the engine's algorithm instance. The
// algorithm must be the same instance the fl.Engine aggregates into — each
// round reads its Global() state and wire state at dispatch.
func NewPipeline(coord *Coordinator, alg fl.Algorithm) (*Pipeline, error) {
	if coord == nil {
		return nil, fmt.Errorf("transport: pipeline needs a coordinator")
	}
	if alg == nil {
		return nil, fmt.Errorf("transport: pipeline needs an algorithm")
	}
	p := &Pipeline{
		coord: coord,
		alg:   alg,
		slots: make(map[int]*slotState),
	}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// UseCodec accepts only wire.CodecDelta, the wire format the Pipeline
// always speaks, and changes nothing. It exists for the benchmark, which
// names the codec it runs (benchmark/run.go).
func (p *Pipeline) UseCodec(name string) error {
	_, err := wire.New(name)
	return err
}

// Stats returns the cumulative wire accounting across completed rounds.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close fails a round waiting for results and stops the collectors from
// reporting further deaths. Call it before Coordinator.Shutdown/Close
// when tearing a run down.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// fail records the first fatal error and wakes every waiter. Callers must
// hold mu.
func (p *Pipeline) failLocked(err error) {
	if p.fatal == nil {
		p.fatal = err
	}
	p.cond.Broadcast()
}

// liveOrJoined returns the live worker slots; when there are none it first
// waits up to JoinWait for the coordinator's accept loop to admit a
// (re-)joining worker, whose fresh slot full-snapshots (elastic
// membership). Callers must not hold mu.
func (p *Pipeline) liveOrJoined() []int {
	live := p.coord.liveSlots()
	if len(live) == 0 && p.JoinWait > 0 && p.coord.AwaitLive(1, p.JoinWait) == nil {
		live = p.coord.liveSlots()
	}
	return live
}

// slotFor returns (creating if needed) slot's state. Callers must hold mu.
func (p *Pipeline) slotFor(slot int) *slotState {
	st, ok := p.slots[slot]
	if !ok {
		st = &slotState{}
		p.slots[slot] = st
	}
	return st
}

// dispatch is RunEach's first half: build and send one broadcast per live
// worker — every live slot gets a frame each round, idle ones a bare
// KindNone, keeping all workers in lockstep with the version stream — and
// return the round as soon as the sends complete. Results arrive on the
// collectors; await hands them over.
func (p *Pipeline) dispatch(jobs []fl.Job) (*roundFlight, error) {
	task, round := jobs[0].Spec.Task, jobs[0].Spec.Round
	var payload []byte
	if ws, ok := p.alg.(fl.WireStater); ok {
		var err error
		payload, err = ws.EncodeWireState()
		if err != nil {
			return nil, fmt.Errorf("transport: encoding wire state: %w", err)
		}
	}
	// StateDict clones, so the round's dict is immune to the engine
	// mutating the global during aggregation.
	p.enc.SetRound(nn.StateDict(p.alg.Global()), payload)
	start := time.Now()

	live := p.liveOrJoined()
	if len(live) == 0 {
		return nil, fmt.Errorf("transport: no live workers to dispatch round %d", round)
	}

	// Register the round before anything hits the wire: acks can start
	// arriving the moment the first send completes.
	p.mu.Lock()
	if p.fatal != nil {
		err := p.fatal
		p.mu.Unlock()
		return nil, err
	}
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("transport: dispatch on a closed pipeline")
	}
	if p.cur != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("transport: round %d is still in flight", p.cur.round)
	}
	rf := &roundFlight{
		task: task, round: round,
		jobs:      make([]flight, len(jobs)),
		remaining: len(jobs),
		rs:        RoundStats{Task: task, Round: round, Attempts: 1},
		start:     start,
	}
	rf.startIn, rf.startOut = p.coord.BytesTransferred()
	if !p.everStarted {
		p.everStarted = true
		p.startIn, p.startOut = rf.startIn, rf.startOut
	}
	p.cur = rf
	p.mu.Unlock()

	// Round-robin the jobs over the live slots; a job's position in its
	// slot's spec list is the Index its ack will carry.
	batches := make([]*batch, len(live))
	for i := range batches {
		batches[i] = &batch{rf: rf}
	}
	for k := range jobs {
		b := batches[k%len(live)]
		b.specs = append(b.specs, jobs[k].Spec)
		b.idxs = append(b.idxs, k)
	}
	send := func(i int) {
		if err := p.sendBatch(live[i], batches[i]); err != nil {
			// The slot died: its queued jobs (this batch included)
			// re-queue on the survivors.
			p.workerDied(live[i])
		}
	}
	// Idle slots — those past the last job — go first. A round's byte
	// window (finishRound) closes at its last ack, and every broadcast is
	// counted before it is written, so a frame sent ahead of the last
	// job-carrying one is always inside the window; an idle frame sent
	// after it could miss it.
	active := min(len(jobs), len(live))
	for i := active; i < len(live); i++ {
		send(i)
	}
	for i := 0; i < active; i++ {
		send(i)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	rf.rs.DispatchNanos = time.Since(start).Nanoseconds()
	return rf, p.fatal
}

// sendBatch sends b to the slot as one broadcast of b's round: it builds
// the slot's frame — a bare KindNone when b has no jobs, otherwise whatever
// brings the worker from its mirrored state to the round's — advances the
// mirror past it, enqueues b and writes the frame, all under the slot's
// sendMu. Dispatch and re-queues can both send to a slot while a round is
// in flight; holding sendMu from frame to send makes the mirror advance in
// exactly the order the frames reach the wire, so each frame is built
// against the state the worker will hold when it arrives. b's upload base
// is the mirror's dict once its frame is built. The batch is enqueued
// before the send: if the slot is dead or the send fails, the returned
// error routes the caller into workerDied, which finds the batch in the
// queue and re-queues its jobs. A frame that cannot be built fails the run.
func (p *Pipeline) sendBatch(slot int, b *batch) error {
	rf := b.rf
	p.mu.Lock()
	st := p.slotFor(slot)
	p.mu.Unlock()
	st.sendMu.Lock()
	defer st.sendMu.Unlock()
	f, err := p.enc.FrameFor(&st.tracker, len(b.idxs) > 0)
	if err == nil {
		err = p.enc.Advance(&st.tracker, f)
	}
	p.mu.Lock()
	if err != nil {
		p.failLocked(fmt.Errorf("transport: framing round %d for worker %d: %w", rf.round, slot, err))
		p.mu.Unlock()
		return nil
	}
	b.base = st.tracker.Dict
	st.queue = append(st.queue, b)
	if st.dead {
		// The slot died while this batch was being prepared; the death
		// that ran, or the one the caller runs next, re-queues it.
		p.mu.Unlock()
		return fmt.Errorf("transport: worker %d is dead", slot)
	}
	switch f.Kind {
	case wire.KindFull:
		// A full snapshot is always a fallback: the worker had no usable base.
		rf.rs.FullFrames++
		rf.rs.Fallbacks++
	case wire.KindDelta:
		rf.rs.DeltaFrames++
	case wire.KindNone:
		rf.rs.IdleFrames++
	}
	if !st.collecting {
		st.collecting = true
		go p.collect(slot, st)
	}
	p.mu.Unlock()
	return p.coord.send(slot, Broadcast{Task: rf.task, Round: rf.round, Frame: *f, Jobs: b.specs})
}

// collect is slot's dedicated receive loop: it decodes acks against the
// head batch of the slot's queue, settles flights, and finalizes the round
// when its last ack lands. One collector runs per slot for the pipeline's
// lifetime; it exits on worker death or pipeline close.
func (p *Pipeline) collect(slot int, st *slotState) {
	for {
		u, err := p.coord.recv(slot)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		if err != nil {
			p.mu.Unlock()
			p.workerDied(slot)
			return
		}
		if u.Version != ProtocolVersion {
			p.failLocked(fmt.Errorf("transport: worker %d speaks protocol v%d, coordinator v%d", slot, u.Version, ProtocolVersion))
			p.mu.Unlock()
			return
		}
		if u.Error != "" {
			// A worker-reported error is deterministic: re-queueing the job
			// elsewhere would fail identically, so the run fails.
			p.failLocked(fmt.Errorf("transport: worker %d: %s", slot, u.Error))
			p.mu.Unlock()
			return
		}
		if len(st.queue) == 0 {
			p.failLocked(fmt.Errorf("transport: worker %d sent an update with no broadcast outstanding", slot))
			p.mu.Unlock()
			return
		}
		b := st.queue[0]
		if u.Done {
			if b.acked != len(b.idxs) {
				p.failLocked(fmt.Errorf("transport: worker %d closed round %d's stream with %d of %d acks", slot, b.rf.round, b.acked, len(b.idxs)))
				p.mu.Unlock()
				return
			}
			st.queue = st.queue[1:]
			p.mu.Unlock()
			continue
		}
		jr := u.Results[0] // an ack frame carries exactly one result
		if jr.Index < 0 || jr.Index >= len(b.idxs) {
			p.failLocked(fmt.Errorf("transport: worker %d acked job slot %d of %d", slot, jr.Index, len(b.idxs)))
			p.mu.Unlock()
			return
		}
		rf := b.rf
		if rf != p.cur {
			p.failLocked(fmt.Errorf("transport: worker %d acked job %d of settled round %d", slot, jr.Index, rf.round))
			p.mu.Unlock()
			return
		}
		if jr.Patch == nil {
			p.failLocked(fmt.Errorf("transport: worker %d round %d job %d: ack carries no state patch", slot, rf.round, jr.Index))
			p.mu.Unlock()
			return
		}
		if jr.Patch.Full {
			rf.rs.UploadFallbacks++
		} else {
			rf.rs.PatchUploads++
		}
		var finished *RoundStats
		if fl0 := &rf.jobs[b.idxs[jr.Index]]; !fl0.done {
			res, err := p.decodeResult(jr, b.base)
			if p.closed {
				p.mu.Unlock()
				return
			}
			if err != nil {
				p.failLocked(fmt.Errorf("transport: worker %d round %d job %d: %w", slot, rf.round, jr.Index, err))
				p.mu.Unlock()
				return
			}
			// A re-queued copy of the job can settle it while this ack
			// decodes; this result and its buffer are then dropped.
			if !fl0.done {
				fl0.res, fl0.done = res, true
				nanos := time.Since(rf.start).Nanoseconds()
				if rf.rs.FirstAckNanos == 0 {
					rf.rs.FirstAckNanos = nanos
				}
				rf.rs.LastAckNanos = nanos
				rf.remaining--
				p.Telemetry.ObserveAck(slot, time.Duration(nanos))
				if rf.remaining == 0 {
					finished = p.finishRound(rf)
				}
			}
		}
		b.acked++
		p.cond.Broadcast()
		p.mu.Unlock()
		if finished != nil && p.OnRound != nil {
			p.OnRound(*finished)
		}
	}
}

// finishRound finalizes the round in flight once its last ack landed:
// compute its byte window, fold its statistics into the cumulative totals,
// report it to telemetry and make room for the next round. Called with mu
// held; the returned stats are delivered to OnRound outside the lock.
func (p *Pipeline) finishRound(rf *roundFlight) *RoundStats {
	in, out := p.coord.BytesTransferred()
	rf.rs.BroadcastBytes, rf.rs.UploadBytes = out-rf.startOut, in-rf.startIn
	totalBroadcast, totalUpload := out-p.startOut, in-p.startIn
	p.cur = nil
	rs := rf.rs
	p.stats.add(rs)
	p.stats.BroadcastBytes, p.stats.UploadBytes = totalBroadcast, totalUpload
	if p.Telemetry != nil {
		p.Telemetry.ObserveRound(rs.observation(rf.start, totalBroadcast, totalUpload))
	}
	return &rs
}

// workerDied handles a slot's connection death: re-queue every unfinished
// job of the round in flight that its queued batches hold onto the
// survivors, one batch per survivor sent like any other (sendBatch). When
// the dead slot was the last live one, wait up to JoinWait for a
// (re-)joining worker and re-queue onto its fresh slot. Safe to call
// repeatedly and from collectors and dispatch alike: each call drains
// whatever the slot's queue holds (a sendBatch that lost the race with an
// earlier death appends its batch to the dead slot's queue and then routes
// here), so no batch is ever stranded. Callers must not hold mu.
func (p *Pipeline) workerDied(slot int) {
	p.coord.markDead(slot)
	p.mu.Lock()
	st := p.slotFor(slot)
	if p.closed || p.fatal != nil {
		p.mu.Unlock()
		return
	}
	if !st.dead {
		// First observation of this death (teardown paths return above, so
		// clean shutdowns never count as deaths).
		p.Telemetry.WorkerDead(slot)
	}
	st.dead = true
	// Batches of earlier rounds were fully acked — only their Done frames
	// were outstanding — so the unfinished jobs all belong to the round in
	// flight.
	rf := p.cur
	var specs []fl.JobSpec
	var idxs []int
	for _, b := range st.queue {
		if b.rf != rf {
			continue
		}
		for k, ji := range b.idxs {
			if !rf.jobs[ji].done {
				specs = append(specs, b.specs[k])
				idxs = append(idxs, ji)
			}
		}
	}
	st.queue = nil
	p.mu.Unlock()
	if len(idxs) == 0 {
		return
	}

	// The redo jobs now belong to this call alone — their batches left the
	// dead slot's queue, so the round cannot finish under it, and no next
	// round can replace the encoder's state — and the wait for a survivor
	// can run unlocked.
	survivors := p.liveOrJoined()

	p.mu.Lock()
	if p.closed || p.fatal != nil {
		p.mu.Unlock()
		return
	}
	if len(survivors) == 0 {
		p.failLocked(fmt.Errorf("transport: no live workers with jobs unfinished"))
		p.mu.Unlock()
		return
	}
	rf.rs.Attempts++
	p.Telemetry.Requeued(rf.task, rf.round, len(idxs))
	p.mu.Unlock()

	// Deal the jobs round-robin into one batch per survivor.
	batches := make([]*batch, min(len(survivors), len(idxs)))
	for k, ji := range idxs {
		s := k % len(survivors)
		if batches[s] == nil {
			batches[s] = &batch{rf: rf}
		}
		batches[s].specs = append(batches[s].specs, specs[k])
		batches[s].idxs = append(batches[s].idxs, ji)
	}
	for s, b := range batches {
		if err := p.sendBatch(survivors[s], b); err != nil {
			// The survivor died too; recurse — its queue (our batch
			// included) re-queues on whoever is left.
			p.workerDied(survivors[s])
		}
	}
}

// await is RunEach's second half: block until job index of rf settles, then
// consume and return its result.
func (p *Pipeline) await(rf *roundFlight, index int) (fl.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.fatal != nil {
			return fl.Result{}, p.fatal
		}
		if fl0 := &rf.jobs[index]; fl0.done {
			res := fl0.res
			fl0.res = fl.Result{}
			return res, nil
		}
		if p.closed {
			return fl.Result{}, fmt.Errorf("transport: pipeline closed with job %d of round %d in flight", index, rf.round)
		}
		p.cond.Wait()
	}
}

// RunEach implements fl.EachRunner: dispatch the round, then await and hand
// over each job in job order (the engine's fold order).
func (p *Pipeline) RunEach(jobs []fl.Job, done func(i int, res fl.Result) error) error {
	if len(jobs) == 0 {
		return nil
	}
	rf, err := p.dispatch(jobs)
	if err != nil {
		return err
	}
	for i := range jobs {
		res, err := p.await(rf, i)
		if err != nil {
			return err
		}
		if err := done(i, res); err != nil {
			return err
		}
	}
	return nil
}

// decodeResult converts one acked JobResult into an fl.Result, decoding the
// upload patch into a buffer from the free list. base is the broadcast base
// the sending worker diffed its patch against — its post-frame state, the
// slot mirror's dict once the frame was built — so the result's unchanged
// keys point at the encoder's round dict and its changed keys at the
// buffer's tensors. The result's Release hands the buffer back for a later
// ack to overwrite.
//
// Called with mu held, and returns with it held, but releases it while the
// patch decodes: the ack's bytes are the collector's until its next recv
// and base is immutable, and an engine waiting on mu behind a decode would
// leave every result decoded meanwhile holding a buffer. The method's
// DecodeUpload, not documented concurrency-safe, runs under mu.
func (p *Pipeline) decodeResult(jr JobResult, base map[string]*tensor.Tensor) (fl.Result, error) {
	var buf *wire.DecodeBuffer
	if n := len(p.free); n > 0 {
		buf, p.free = p.free[n-1], p.free[:n-1]
	} else {
		buf = new(wire.DecodeBuffer)
	}
	p.mu.Unlock()
	dict, err := buf.Decode(base, jr.Patch)
	p.mu.Lock()
	if err != nil {
		return fl.Result{}, fmt.Errorf("upload patch: %w", err)
	}
	var up fl.Upload
	if len(jr.Upload) > 0 {
		uc, ok := p.alg.(fl.UploadCoder)
		if !ok {
			return fl.Result{}, fmt.Errorf("worker sent an upload but %s cannot decode uploads", p.alg.Name())
		}
		up, err = uc.DecodeUpload(jr.Upload)
		if err != nil {
			return fl.Result{}, fmt.Errorf("upload: %w", err)
		}
	}
	release := func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		poisonDecoded(dict, base)
		p.free = append(p.free, buf)
	}
	return fl.Result{Dict: dict, Upload: up, Release: release}, nil
}

var _ fl.EachRunner = (*Pipeline)(nil)
