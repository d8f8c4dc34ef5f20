package transport

import (
	"fmt"
	"sort"
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
// Per round every live worker receives a versioned wire.Frame: under the
// default full codec the complete state dict plus the method's encoded
// wire state (fl.WireStater); under the delta codec (UseCodec) per-key
// diffs against the base version the slot's mirror holds, with the
// wire-state payload re-sent only when its bytes change, and a full
// snapshot for workers with no usable base. Uploads come back as
// wire.Patch too (wire.ForUpload), reconstructed against the state the
// slot's mirror holds once the frame is built. Jobs are assigned
// round-robin by worker slot; assignment never affects results: each job is
// a self-contained deterministic computation (see fl.EachRunner), and every
// codec is exact, so any placement under any codec produces the same bits.
//
// Each worker slot has a FIFO queue of the broadcasts it has yet to answer
// and a dedicated collector goroutine. The queue outlives a round: a
// worker's closing Done frame trails its last ack, so it usually arrives
// after the next round's broadcast is already queued behind it.
//
// A worker connection dying does not fail the run: the dead worker's
// acknowledged results are kept and its unfinished jobs are redistributed
// round-robin over the survivors as Replay broadcasts, which carry the
// round's retained state out of band — a survivor may never have seen it
// (an idle slot, a fresh joiner) — and do not touch the survivor's tracker
// mirror. Only connection failures re-queue; an error the worker itself
// reports is deterministic and fails the run (re-running the job elsewhere
// would fail identically). A dead worker's base-version tracking is
// dropped with it, so a re-dial starts from a full snapshot.
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

	// tmu guards enc, started, trackers and stats; tracker structs are only
	// mutated under it. Lock order is mu → tmu (finishRound), never the
	// reverse.
	tmu      sync.Mutex
	enc      *wire.Encoder
	trackers map[int]*wire.Tracker
	stats    Stats
	started  bool

	// mu guards the round in flight, per-slot queues and the fatal flag;
	// cond (on mu) wakes await when a job settles.
	mu     sync.Mutex
	cond   *sync.Cond
	cur    *roundFlight
	slots  map[int]*slotState
	fatal  error
	closed bool
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

// roundFlight is the coordinator-side state of the round in flight: the
// codec it was dispatched under, the canonical state (for replays after
// worker deaths), the wire-state payload, one flight per job and the
// round's statistics.
type roundFlight struct {
	task, round int
	codec       string
	dict        map[string]*tensor.Tensor
	payload     []byte
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
// enqueue+send pairs so wire order always matches queue order.
type slotState struct {
	sendMu     sync.Mutex
	queue      []*batch
	collecting bool
	dead       bool
}

// NewPipeline wraps a coordinator and the engine's algorithm instance. The
// algorithm must be the same instance the fl.Engine aggregates into — each
// round reads its Global() state and wire state at dispatch. The codec
// starts as "full" (complete snapshots); call UseCodec before the first
// round to switch to delta broadcast.
func NewPipeline(coord *Coordinator, alg fl.Algorithm) (*Pipeline, error) {
	if coord == nil {
		return nil, fmt.Errorf("transport: pipeline needs a coordinator")
	}
	if alg == nil {
		return nil, fmt.Errorf("transport: pipeline needs an algorithm")
	}
	enc, err := wire.NewEncoder(wire.Full{})
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		coord:    coord,
		alg:      alg,
		enc:      enc,
		trackers: make(map[int]*wire.Tracker),
		slots:    make(map[int]*slotState),
	}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// UseCodec selects the broadcast codec by registry name (full|delta).
// It must be called before the first round: switching codecs mid-run
// would invalidate the per-worker base tracking. The started check and the
// encoder swap hold tmu so a UseCodec racing a RunEach can never slip a
// new encoder under a round in flight.
func (p *Pipeline) UseCodec(name string) error {
	codec, err := wire.New(name)
	if err != nil {
		return err
	}
	enc, err := wire.NewEncoder(codec)
	if err != nil {
		return err
	}
	p.tmu.Lock()
	defer p.tmu.Unlock()
	if p.started {
		return fmt.Errorf("transport: cannot switch codec after the first round")
	}
	p.enc = enc
	return nil
}

// Codec returns the active codec's registry name.
func (p *Pipeline) Codec() string {
	p.tmu.Lock()
	defer p.tmu.Unlock()
	return p.enc.Codec().Name()
}

// Stats returns the cumulative wire accounting across completed rounds.
func (p *Pipeline) Stats() Stats {
	p.tmu.Lock()
	defer p.tmu.Unlock()
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
// membership). Callers must not hold mu or tmu.
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
	p.tmu.Lock()
	p.started = true
	enc := p.enc
	p.tmu.Unlock()
	codecName := enc.Codec().Name()
	// StateDict clones, so the canonical dict is immune to the engine
	// mutating the global during aggregation. The dict is retained in the
	// roundFlight: it is the replay state if a worker dies holding this
	// round's jobs.
	enc.SetRound(nn.StateDict(p.alg.Global()), payload)
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
		task: task, round: round, codec: codecName,
		dict: enc.Dict(), payload: payload,
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
	assign := make(map[int][]int, len(live))
	for k := range jobs {
		slot := live[k%len(live)]
		assign[slot] = append(assign[slot], k)
	}

	// Build every slot's frame and advance its mirror at send time, under
	// tmu so a concurrent worker death (workerDied) cannot race the
	// tracker structs. The mirror advances now — not at round completion —
	// so it holds exactly the state the worker will hold after this frame:
	// the base this round's upload patches are decoded against.
	type outbound struct {
		slot  int
		frame *wire.Frame
		base  map[string]*tensor.Tensor
		idxs  []int
	}
	outs := make([]outbound, 0, len(live))
	p.tmu.Lock()
	for _, slot := range live {
		t, ok := p.trackers[slot]
		if !ok {
			t = &wire.Tracker{}
			p.trackers[slot] = t
		}
		active := len(assign[slot]) > 0
		f, err := enc.FrameFor(t, active)
		if err != nil {
			p.tmu.Unlock()
			return nil, fmt.Errorf("transport: encoding frame for worker %d: %w", slot, err)
		}
		if err := enc.Advance(t, f); err != nil {
			p.tmu.Unlock()
			return nil, fmt.Errorf("transport: advancing worker %d mirror: %w", slot, err)
		}
		outs = append(outs, outbound{slot: slot, frame: f, base: t.Dict, idxs: assign[slot]})
	}
	p.tmu.Unlock()

	// Idle slots' frames go out first. A round's byte window (finishRound)
	// closes at its last ack, and every broadcast is counted before it is
	// written, so a frame sent ahead of the last job-carrying one is always
	// inside the window; an idle frame sent after it could miss it.
	sort.SliceStable(outs, func(i, j int) bool { return len(outs[i].idxs) == 0 && len(outs[j].idxs) > 0 })
	for _, o := range outs {
		specs := make([]fl.JobSpec, len(o.idxs))
		for k, ji := range o.idxs {
			specs[k] = jobs[ji].Spec
		}
		b := &batch{rf: rf, specs: specs, idxs: o.idxs, base: o.base}
		bc := Broadcast{Task: task, Round: round, Frame: *o.frame, Codec: codecName, Jobs: specs}
		p.mu.Lock()
		switch o.frame.Kind {
		case wire.KindFull:
			rf.rs.FullFrames++
			if codecName != wire.CodecFull {
				rf.rs.Fallbacks++
			}
		case wire.KindDelta:
			rf.rs.DeltaFrames++
		case wire.KindNone:
			rf.rs.IdleFrames++
		}
		p.mu.Unlock()
		if err := p.sendBatch(o.slot, b, bc); err != nil {
			// The slot died on send: its tracker is gone and its queued
			// jobs (this batch included) re-queue on the survivors.
			p.workerDied(o.slot)
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	rf.rs.DispatchNanos = time.Since(start).Nanoseconds()
	return rf, p.fatal
}

// sendBatch enqueues b on the slot and sends its broadcast, holding the
// slot's sendMu across both so wire order always matches queue order (a
// concurrent replay send cannot interleave). The batch is enqueued before
// the send: if the send fails, workerDied finds it in the queue and
// re-queues its jobs.
func (p *Pipeline) sendBatch(slot int, b *batch, bc Broadcast) error {
	p.mu.Lock()
	st := p.slotFor(slot)
	p.mu.Unlock()
	st.sendMu.Lock()
	defer st.sendMu.Unlock()
	p.mu.Lock()
	if st.dead {
		// Too late: the slot died while this batch was being prepared. Put
		// the batch in the queue anyway and let workerDied's caller — or
		// the death that already ran — re-queue it; returning an error
		// routes the caller into workerDied, which handles both cases.
		st.queue = append(st.queue, b)
		p.mu.Unlock()
		return fmt.Errorf("transport: worker %d is dead", slot)
	}
	st.queue = append(st.queue, b)
	if !st.collecting {
		st.collecting = true
		go p.collect(slot, st)
	}
	p.mu.Unlock()
	return p.coord.send(slot, bc)
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
			rf.rs.StateUploads++
			if rf.codec != wire.CodecFull {
				rf.rs.UploadFallbacks++
			}
		} else {
			rf.rs.PatchUploads++
		}
		if fl0 := &rf.jobs[b.idxs[jr.Index]]; !fl0.done {
			// Decode under mu: wire.Decode is pure, but the method's
			// DecodeUpload is not documented concurrency-safe, and decode
			// cost is dwarfed by training.
			res, err := decodeResult(p.alg, jr, b.base)
			if err != nil {
				p.failLocked(fmt.Errorf("transport: worker %d round %d job %d: %w", slot, rf.round, jr.Index, err))
				p.mu.Unlock()
				return
			}
			fl0.res, fl0.done = res, true
			nanos := time.Since(rf.start).Nanoseconds()
			if rf.rs.FirstAckNanos == 0 {
				rf.rs.FirstAckNanos = nanos
			}
			rf.rs.LastAckNanos = nanos
			rf.remaining--
			p.Telemetry.ObserveAck(slot, time.Duration(nanos))
		}
		b.acked++
		var finished *RoundStats
		if rf.remaining == 0 {
			finished = p.finishRound(rf)
		}
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
	p.tmu.Lock()
	p.stats.add(rs)
	p.stats.BroadcastBytes, p.stats.UploadBytes = totalBroadcast, totalUpload
	p.tmu.Unlock()
	if p.Telemetry != nil {
		p.Telemetry.ObserveRound(rs.observation(rf.start, totalBroadcast, totalUpload))
	}
	return &rs
}

// workerDied handles a slot's connection death: drop its base tracking, and
// re-queue every unfinished job of the round in flight that its queued
// batches hold onto the survivors as Replay broadcasts. When the dead slot
// was the last live one, wait up to JoinWait for a (re-)joining worker and
// replay onto its fresh slot. Safe to call repeatedly and from collectors
// and dispatch alike: each call drains whatever the slot's queue holds (a
// sendBatch that lost the race with an earlier death appends its batch to
// the dead slot's queue and then routes here), so no batch is ever
// stranded. Callers must not hold mu or tmu.
func (p *Pipeline) workerDied(slot int) {
	p.coord.markDead(slot)
	p.tmu.Lock()
	delete(p.trackers, slot)
	p.tmu.Unlock()

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
	// dead slot's queue, so the round cannot finish under it — and the wait
	// for a survivor can run unlocked.
	survivors := p.liveOrJoined()

	// Deal the jobs round-robin into one replay batch per survivor while
	// the round state is pinned under mu; send outside it.
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
	snapshot, err := wire.Full{}.Encode(nil, rf.dict)
	if err != nil {
		p.failLocked(fmt.Errorf("transport: encoding round %d replay state: %w", rf.round, err))
		p.mu.Unlock()
		return
	}
	rf.rs.Attempts++
	p.Telemetry.Requeued(rf.task, rf.round, len(idxs))
	replay := &Replay{Patch: *snapshot}
	if len(rf.payload) > 0 {
		// Always ship the round's wire state: the survivor may never have
		// loaded it (a fresh joiner), and it restores its stream payload
		// after the replay either way.
		replay.Payload, replay.HasPayload = rf.payload, true
	}
	batches := make([]*batch, min(len(survivors), len(idxs)))
	for k, ji := range idxs {
		s := k % len(survivors)
		if batches[s] == nil {
			batches[s] = &batch{rf: rf, base: rf.dict}
		}
		batches[s].specs = append(batches[s].specs, specs[k])
		batches[s].idxs = append(batches[s].idxs, ji)
	}
	p.mu.Unlock()

	for s, b := range batches {
		bc := Broadcast{Task: rf.task, Round: rf.round, Codec: rf.codec, Jobs: b.specs, Replay: replay}
		if err := p.sendBatch(survivors[s], b, bc); err != nil {
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

// decodeResult converts one acked JobResult into an fl.Result. base is the
// broadcast base the sending worker diffed its upload patch against — its
// post-frame state, the slot mirror's dict once the frame was built, or,
// for a replay, the round's retained state. collect never calls it concurrently
// (the method's DecodeUpload is not documented concurrency-safe).
func decodeResult(alg fl.Algorithm, jr JobResult, base map[string]*tensor.Tensor) (fl.Result, error) {
	dict, err := wire.Decode(base, jr.Patch)
	if err != nil {
		return fl.Result{}, fmt.Errorf("upload patch: %w", err)
	}
	var up fl.Upload
	if len(jr.Upload) > 0 {
		uc, ok := alg.(fl.UploadCoder)
		if !ok {
			return fl.Result{}, fmt.Errorf("worker sent an upload but %s cannot decode uploads", alg.Name())
		}
		up, err = uc.DecodeUpload(jr.Upload)
		if err != nil {
			return fl.Result{}, fmt.Errorf("upload: %w", err)
		}
	}
	return fl.Result{Dict: dict, Upload: up}, nil
}

var _ fl.EachRunner = (*Pipeline)(nil)
