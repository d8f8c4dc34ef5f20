package transport

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"reffil/internal/fl"
	"reffil/internal/fl/internal/poison"
	"reffil/internal/fl/wire"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// Pipeline is the transport-backed round runner: it fans one round's jobs
// out across the coordinator's live workers over TCP and hands the per-job
// acks back as they stream in, so an fl.Engine built on it runs every paper
// scenario multi-node with the same mechanics — and the same numbers — as
// the in-process pool. Rounds are synchronous, exactly one is in flight:
// RunEach returns when its last job has been handed over.
//
// One function places jobs (deal): round-robin in job-index order over the
// live slots, one broadcast per slot. Dispatch deals every job of the
// round, a death the dead slot's unsettled jobs; a slot dealt no job is
// sent nothing. Each broadcast carries a versioned wire.Frame built against
// the base version the slot's mirror holds: per-key diffs, with the
// method's encoded wire state (fl.WireStater) re-sent only when its bytes
// change; a full snapshot for a slot with no usable base; no state for a
// slot the round already reached. Uploads come back as wire.Patch too,
// reconstructed against the state the slot's mirror holds once its frame
// is built, into a wire.DecodeBuffer that the result's fl.Result.Release
// hands back for a later ack. Placement never affects results: each job is
// a self-contained deterministic computation (see fl.EachRunner), and the
// wire format is exact.
//
// Every job entry of a broadcast carries the job's index in the round, and
// each ack echoes it, so a slot keeps only its mirror, the round's jobs it
// holds unsettled and the upload-decode base of its latest frame — all in
// the coordinator's record of the slot, beside its connection and its dead
// flag. The slot's reader, which the coordinator runs from the slot's
// handshake to its close, hands each ack to settle and each death to
// workerDied. An index-only ack is sound only under one invariant: a job is
// settled only by a slot that holds it, so a live slot never holds a job of
// an earlier round. settle takes a job out of its slot's hold when it reads
// the job's ack, before the decode releases the lock, so a death during the
// decode leaves the job to that decode; and it drops anything read once its
// slot is dead, whose jobs are dealt again at its death.
//
// A worker connection dying does not fail the run: its acknowledged
// results are kept and the jobs it holds are dealt over the survivors, as
// more broadcasts of the round built from the round state the encoder
// still holds. Only connection failures re-queue; an error the worker
// itself reports is deterministic and fails the run (re-running the job
// elsewhere would fail identically). A dead worker's mirror dies with its
// slot, so a re-dial starts from a full snapshot.
//
// The Pipeline runs on its coordinator's mutex and condition variable, so
// one coordinator serves one Pipeline (NewPipeline refuses a second), which
// reports to the coordinator's telemetry sink. Neither a slot reader nor a
// send holds the mutex in a socket read or write.
//
// A warm round copies nothing of model size. The round's dict keeps the
// last round's tensor for every key whose bits did not change, and writes
// every changed key into a tensor retired from the dict of two rounds back
// (snapshot): once every live mirror and upload-decode base holds the
// current dict and no result is lent, nothing can read that older dict's
// tensors that the current dict does not share. The encoder writes the
// round's broadcast patches into the last round's patch bytes, so dispatch
// waits until every send that wrote them has returned; and job i's ack
// decodes into the buffer of index i, which the engine's Release hands back
// before the next round's job i.
//
// Determinism: a result is identified by its job index and the engine folds
// in job-index order regardless of arrival order, so the same results are
// folded in the same order with the same bits whatever the wall-clock
// schedule — the Pipeline matches the in-process engine bit for bit.
type Pipeline struct {
	coord *Coordinator
	alg   fl.Algorithm
	// OnRound, when non-nil, receives each round's wire statistics once its
	// last ack lands. Called from a slot's reader goroutine, outside the
	// coordinator's lock, possibly after RunEach has returned.
	OnRound func(RoundStats)
	// JoinWait, when positive, is how long a moment with no live workers —
	// at a round's start, or when the last live worker dies holding jobs —
	// waits for the coordinator's background accept loop to admit a
	// (re-)joining worker (elastic membership) before failing the run. Zero
	// keeps the fail-fast behaviour.
	JoinWait time.Duration

	// enc holds the round in flight's state and payload until the next
	// dispatch, so re-queues frame against it too.
	enc wire.Encoder
	// older is the round dict the encoder held before its current one,
	// whose tensors the next dispatch may retire (see recyclableLocked).
	older map[string]*tensor.Tensor

	// The rest is guarded by the coordinator's mu: the round in flight, the
	// fatal error, the send count, the decode buffers and the cumulative
	// stats. The coordinator's cond wakes await when a job settles and
	// dispatch when the last send returns.
	cur    *roundFlight
	fatal  error
	closed bool
	// sends counts the sends in progress; cond wakes a dispatch waiting for
	// it to reach zero.
	sends int
	// bufs[i] is the upload decode buffer of every round's job i, so a run
	// keeps one per job of its largest round, whatever order acks arrive
	// in. lent counts the decode buffers, in bufs or replaced there, that
	// hold a result not yet released.
	bufs  []*decodeBuffer
	lent  int
	stats Stats
}

// decodeBuffer is one job index's upload decode buffer. lent marks it
// holding a result that has not been released.
type decodeBuffer struct {
	wire.DecodeBuffer
	lent bool
}

// flight is one job's spec and settlement state.
type flight struct {
	spec fl.JobSpec
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
	// sent counts the round's broadcast bytes as the frame writer writes
	// them, outside mu; finishRound moves it into rs.
	sent atomic.Int64
}

// NewPipeline wraps a coordinator and the engine's algorithm instance, and
// registers the Pipeline on the coordinator, whose slot readers then hand
// it their updates; a coordinator runs one Pipeline for its lifetime, so a
// second is refused. The algorithm must be the same instance the fl.Engine
// aggregates into — each round reads its Global() state and wire state at
// dispatch.
func NewPipeline(coord *Coordinator, alg fl.Algorithm) (*Pipeline, error) {
	if coord == nil {
		return nil, fmt.Errorf("transport: pipeline needs a coordinator")
	}
	if alg == nil {
		return nil, fmt.Errorf("transport: pipeline needs an algorithm")
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if coord.pipeline != nil {
		return nil, fmt.Errorf("transport: the coordinator already runs a pipeline")
	}
	coord.pipeline = &Pipeline{coord: coord, alg: alg}
	return coord.pipeline, nil
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
	p.coord.mu.Lock()
	defer p.coord.mu.Unlock()
	return p.stats
}

// Close fails a round waiting for results and stops settling acks and
// re-queueing; the slot readers read on until their connections end. Call
// it before Coordinator.Shutdown/Close when tearing a run down.
func (p *Pipeline) Close() error {
	p.coord.mu.Lock()
	p.closed = true
	p.coord.cond.Broadcast()
	p.coord.mu.Unlock()
	return nil
}

// failLocked records the first fatal error and wakes every waiter. Callers
// must hold the coordinator's mu.
func (p *Pipeline) failLocked(err error) {
	if p.fatal == nil {
		p.fatal = err
	}
	p.coord.cond.Broadcast()
}

// dispatch is RunEach's first half: register the round, deal every job and
// return the round as soon as the sends complete. Results arrive on the
// slot readers; await hands them over.
func (p *Pipeline) dispatch(jobs []fl.Job) (*roundFlight, error) {
	c := p.coord
	task, round := jobs[0].Spec.Task, jobs[0].Spec.Round
	var payload []byte
	if ws, ok := p.alg.(fl.WireStater); ok {
		var err error
		payload, err = ws.EncodeWireState()
		if err != nil {
			return nil, fmt.Errorf("transport: encoding wire state: %w", err)
		}
	}
	// SetRound hands the last round's patch bytes to this one, so every
	// write of them must have returned. A slot that died can still be
	// inside its write after its jobs were dealt again and the round
	// finished; its death closed the connection, so the write fails soon.
	c.mu.Lock()
	for p.sends > 0 {
		c.cond.Wait()
	}
	cur, older := p.enc.Dict(), p.older
	if !p.recyclableLocked(cur) {
		older = nil
	}
	c.mu.Unlock()
	p.enc.SetRound(snapshot(p.alg.Global(), cur, older), payload)
	p.older = cur
	start := time.Now()

	// Register the round before anything hits the wire: acks can start
	// arriving the moment the first send completes.
	c.mu.Lock()
	if p.fatal != nil {
		err := p.fatal
		c.mu.Unlock()
		return nil, err
	}
	if p.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: dispatch on a closed pipeline")
	}
	if p.cur != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: round %d is still in flight", p.cur.round)
	}
	rf := &roundFlight{
		task: task, round: round,
		jobs:      make([]flight, len(jobs)),
		remaining: len(jobs),
		rs:        RoundStats{Task: task, Round: round, Attempts: 1, Start: start},
	}
	all := make([]int, len(jobs))
	for k := range jobs {
		rf.jobs[k].spec = jobs[k].Spec
		all[k] = k
	}
	p.cur = rf
	c.mu.Unlock()

	p.deal(rf, all)

	c.mu.Lock()
	defer c.mu.Unlock()
	rf.rs.DispatchNanos = time.Since(start).Nanoseconds()
	return rf, p.fatal
}

// deal sends the round's jobs idxs round-robin, in the order given, over the
// live slots, one broadcast per slot; a slot whose send fails goes to
// workerDied, which deals the jobs it holds again. With no live slot it
// first waits up to JoinWait for the coordinator's accept loop to admit a
// (re-)joining worker, whose fresh slot full-snapshots (elastic
// membership), and failing that fails the run. Every frame of a round
// carries a job, so each is counted before the round's last ack can land.
// Callers must not hold mu.
func (p *Pipeline) deal(rf *roundFlight, idxs []int) {
	c := p.coord
	c.mu.Lock()
	if p.JoinWait > 0 && c.liveLocked() == 0 {
		_ = c.waitJoin(p.JoinWait, func() bool { return c.liveLocked() > 0 })
	}
	live := c.liveSlots()
	if p.closed || p.fatal != nil {
		c.mu.Unlock()
		return
	}
	if len(live) == 0 {
		p.failLocked(fmt.Errorf("transport: no live workers for %d jobs of round %d", len(idxs), rf.round))
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	for s := range min(len(live), len(idxs)) {
		var share []int
		for k := s; k < len(idxs); k += len(live) {
			share = append(share, idxs[k])
		}
		if err := p.send(live[s], rf, share); err != nil {
			c.workerDied(live[s], false)
		}
	}
}

// holdSend, set by tests, runs inside send with mu released, just before
// the frame is written, given the slot: a test holds a send there while the
// slot dies and its jobs finish elsewhere.
var holdSend atomic.Pointer[func(slot int)]

// send sends the round's jobs idxs to the slot as one broadcast: it builds
// the frame that brings the worker from its mirrored state to the round's,
// which advances the mirror past it, records the mirror's dict as the slot's
// upload-decode base, adds idxs to the slot's hold and writes the frame, all
// under the slot's sendMu. Dispatch and re-queues can both send to a slot
// while a round is in flight; holding sendMu from frame to write makes the
// mirror advance in exactly the order the frames reach the wire, so each
// frame is built against the state the worker will hold when it arrives.
// The jobs are held before the write: if the slot is dead or the write
// fails, the returned error routes the caller into workerDied, which finds
// them in the hold and deals them again. A frame that cannot be built fails
// the run. The send is counted from start to return, so the next dispatch
// can wait for it before the encoder reuses the frame's patch bytes.
func (p *Pipeline) send(slot int, rf *roundFlight, idxs []int) error {
	c := p.coord
	c.mu.Lock()
	w, err := c.slotLocked(slot)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	p.sends++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if p.sends--; p.sends == 0 {
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	}()
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	f, err := p.enc.FrameFor(&w.tracker)
	c.mu.Lock()
	if err != nil {
		p.failLocked(fmt.Errorf("transport: framing round %d for worker %d: %w", rf.round, slot, err))
		c.mu.Unlock()
		return nil
	}
	w.base = w.tracker.Dict
	w.held = append(w.held, idxs...)
	if w.dead {
		// The slot died while this send was being prepared; the death
		// that ran, or the one the caller runs next, deals the jobs again.
		c.mu.Unlock()
		return fmt.Errorf("transport: worker %d is dead", slot)
	}
	switch f.Kind {
	case wire.KindFull:
		// A full snapshot is always a fallback: the worker had no usable base.
		rf.rs.FullFrames++
	case wire.KindDelta:
		rf.rs.DeltaFrames++
	case wire.KindNone:
		rf.rs.IdleFrames++
	}
	jobs := make([]Job, len(idxs))
	for k, ji := range idxs {
		jobs[k] = Job{Index: ji, Spec: rf.jobs[ji].spec}
	}
	c.mu.Unlock()
	if hold := holdSend.Load(); hold != nil {
		(*hold)(slot)
	}
	return c.send(slot, Broadcast{Task: rf.task, Round: rf.round, Frame: *f, Jobs: jobs}, &rf.sent)
}

// settle hands one update a slot's reader read to the Pipeline running on
// the coordinator: it settles the job an ack names, decoding the upload
// against the slot's base, and finalizes the round when its last ack lands.
// It reports false, settling nothing, for an update that arrived before the
// slot's first frame (base is still nil, as it is while no Pipeline runs),
// which answers nothing and is the slot's fault. Anything read on a dead
// slot (whose jobs are dealt again by whoever saw it die), after the run
// failed or after Close settles nothing. Any other fault — a worker's
// error, a version mismatch, an ack of a job the slot does not hold, one
// with no patch or an undecodable one — fails the run.
func (c *Coordinator) settle(slot int, w *wireConn, u Update, n int) bool {
	c.mu.Lock()
	if w.base == nil {
		c.mu.Unlock()
		return false
	}
	// Only a Pipeline's send sets a base.
	p := c.pipeline
	if w.dead || p.closed || p.fatal != nil {
		c.mu.Unlock()
		return true
	}
	jr, rf := u.Ack, p.cur
	var k int
	var fault error
	if u.Version != ProtocolVersion {
		fault = fmt.Errorf("transport: worker %d speaks protocol v%d, coordinator v%d", slot, u.Version, ProtocolVersion)
	} else if u.Error != "" {
		// A worker-reported error is deterministic: re-queueing the job
		// elsewhere would fail identically, so the run fails.
		fault = fmt.Errorf("transport: worker %d: %s", slot, u.Error)
	} else if k = slices.Index(w.held, jr.Index); k < 0 {
		fault = fmt.Errorf("transport: worker %d acked job %d, which it does not hold", slot, jr.Index)
	} else if jr.Patch == nil {
		fault = fmt.Errorf("transport: worker %d round %d job %d: ack carries no state patch", slot, rf.round, jr.Index)
	}
	if fault != nil {
		p.failLocked(fault)
		c.mu.Unlock()
		return true
	}
	// The job leaves the hold before the decode releases mu: a death
	// meanwhile leaves it to this decode instead of dealing it again.
	w.held = slices.Delete(w.held, k, k+1)
	rf.rs.UploadBytes += int64(n)
	if jr.Patch.Full {
		rf.rs.UploadFallbacks++
	} else {
		rf.rs.PatchUploads++
	}
	res, err := p.decodeResult(jr, w.base)
	if p.closed {
		c.mu.Unlock()
		return true
	}
	if err != nil {
		p.failLocked(fmt.Errorf("transport: worker %d round %d job %d: %w", slot, rf.round, jr.Index, err))
		c.mu.Unlock()
		return true
	}
	rf.jobs[jr.Index].res, rf.jobs[jr.Index].done = res, true
	nanos := time.Since(rf.rs.Start).Nanoseconds()
	if rf.rs.FirstAckNanos == 0 {
		rf.rs.FirstAckNanos = nanos
	}
	rf.rs.LastAckNanos = nanos
	rf.remaining--
	c.tel.ObserveAck(slot, time.Duration(nanos))
	var finished *RoundStats
	if rf.remaining == 0 {
		finished = p.finishRound(rf)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if finished != nil && p.OnRound != nil {
		p.OnRound(*finished)
	}
	return true
}

// finishRound finalizes the round in flight once its last ack landed:
// close its broadcast count, fold its statistics into the cumulative
// totals, report it to telemetry and make room for the next round. Called
// with mu held; the returned stats are delivered to OnRound outside the
// lock.
func (p *Pipeline) finishRound(rf *roundFlight) *RoundStats {
	rf.rs.BroadcastBytes = rf.sent.Load()
	p.cur = nil
	rs := rf.rs
	p.stats.add(rs)
	p.coord.tel.ObserveRound(rs)
	return &rs
}

// workerDied handles a slot's death, wherever it was seen — a failed send,
// or the end of the slot's reader (wedged: its heartbeat deadline fired).
// It marks the slot dead (markDead counts the death if no one saw it
// first), and then the jobs the slot holds — dealt to it, their acks not
// read — are dealt again over the survivors (deal), in job-index order. A
// job whose ack the slot's reader read before the death has left the hold,
// and that reader's decode settles it. When the dead slot was the last live
// one, deal waits up to JoinWait for a (re-)joining worker. Safe to call
// repeatedly: each call takes whatever the slot holds, and since the death
// comes first, a send either added its jobs to the hold before it (this
// call finds them) or sees the death and routes here again, so no job is
// ever stranded. Callers must not hold mu.
func (c *Coordinator) workerDied(slot int, wedged bool) {
	c.markDead(slot, wedged)
	c.mu.Lock()
	// Only a Pipeline's send holds jobs, so a slot holding some has one.
	p := c.pipeline
	w, err := c.slotLocked(slot)
	if err != nil || len(w.held) == 0 || p.closed || p.fatal != nil {
		c.mu.Unlock()
		return
	}
	idxs, rf := w.held, p.cur
	w.held = nil
	slices.Sort(idxs)
	rf.rs.Attempts++
	c.tel.Requeued(rf.task, rf.round, len(idxs))
	c.mu.Unlock()
	// The jobs now belong to this call alone — they left the dead slot's
	// hold, so the round cannot finish under it, and no next round can
	// replace the encoder's state — and the wait for a survivor can run
	// unlocked.
	p.deal(rf, idxs)
}

// await is RunEach's second half: block until job index of rf settles, then
// consume and return its result.
func (p *Pipeline) await(rf *roundFlight, index int) (fl.Result, error) {
	c := p.coord
	c.mu.Lock()
	defer c.mu.Unlock()
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
		c.cond.Wait()
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

// holdDecode, set by tests through export_test.go, runs inside
// decodeResult with mu released, before the patch decodes, given the ack's
// job index: a test holds a slot's reader there to kill its slot
// mid-decode.
var holdDecode atomic.Pointer[func(index int)]

// decodeResult converts one acked JobResult into an fl.Result, decoding the
// upload patch into its job index's buffer. base is the broadcast base the
// sending worker diffed its patch against — its post-frame state, the slot
// mirror's dict once the frame was built — so the result's unchanged keys
// point at the encoder's round dict and its changed keys at the buffer's
// tensors. The result's Release hands the buffer back for the next round's
// ack of the same index to overwrite. A buffer still lent — a result from an
// earlier round that was never released — is left to that result, and the
// index gets a new one.
//
// Called with mu held, and returns with it held, but releases it while the
// patch decodes (and while a test's holdDecode runs): the ack's bytes are
// the slot reader's until its next read and base is immutable, and an engine
// waiting on mu behind a decode would leave every result decoded meanwhile
// holding a buffer. The method's DecodeUpload, not documented
// concurrency-safe, runs under mu.
func (p *Pipeline) decodeResult(jr *JobResult, base map[string]*tensor.Tensor) (fl.Result, error) {
	for len(p.bufs) <= jr.Index {
		p.bufs = append(p.bufs, new(decodeBuffer))
	}
	buf := p.bufs[jr.Index]
	if buf.lent {
		buf = new(decodeBuffer)
		p.bufs[jr.Index] = buf
	}
	buf.lent = true
	p.lent++
	p.coord.mu.Unlock()
	if hold := holdDecode.Load(); hold != nil {
		(*hold)(jr.Index)
	}
	dict, err := buf.Decode(base, jr.Patch)
	p.coord.mu.Lock()
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
		p.coord.mu.Lock()
		defer p.coord.mu.Unlock()
		poisonDecoded(dict, base)
		if buf.lent {
			buf.lent = false
			p.lent--
		}
	}
	return fl.Result{Dict: dict, Upload: up, Release: release}, nil
}

// recyclableLocked reports whether nothing can read the tensors of
// p.older, the round dict from two dispatches back, that cur, the encoder's
// current dict, does not share, so that snapshot may write the next round's
// dict into them. Mirrors and upload-decode bases hold round dicts, and a
// lent result's unchanged keys point at its base's tensors; so it holds
// when every live slot's mirror and base holds nothing or only cur's
// tensors, and no decode buffer is lent — counting those a later ack of the
// same index replaced in bufs. A dead slot is sent nothing again,
// and a decode still running on one holds its buffer lent. Called with mu
// held and no send in progress, so no mirror moves.
func (p *Pipeline) recyclableLocked(cur map[string]*tensor.Tensor) bool {
	if p.lent > 0 {
		return false
	}
	for _, w := range p.coord.workers {
		if !w.dead && !(within(w.tracker.Dict, cur) && within(w.base, cur)) {
			return false
		}
	}
	return true
}

// within reports whether every tensor of d is cur's under the same key (a
// nil d holds nothing).
func within(d, cur map[string]*tensor.Tensor) bool {
	//fedvet:ignore maporder an all-of test over the keys has one answer in any order
	for k, t := range d {
		if cur[k] != t {
			return false
		}
	}
	return true
}

// snapshot returns the global's state dict for the next round: each key
// whose shape and bits equal prev's — the last round's dict — keeps prev's
// tensor, and the rest are copied into a tensor retired from older, or
// into a clone when no retired tensor of their shape is left. The retired
// tensors are older's that prev does not share; a nil older retires none.
// A round that leaves most of the model alone (a frozen backbone) then
// copies only what changed, and a warm round that changes every key
// allocates none of them. Round dicts are immutable once the encoder has
// them and while any mirror, upload-decode base or lent result holds them
// (see wire.Encoder), so two rounds can share a tensor, and older must be
// a dict none of them holds any more (recyclableLocked). Under poisoning
// (package poison) the retired tensors are filled with NaN first. The dict
// is immune to the engine writing the global during aggregation.
func snapshot(m nn.Module, prev, older map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	params, buffers := m.Params(), m.Buffers()
	var spare []*tensor.Tensor
	if older != nil {
		spare = make([]*tensor.Tensor, 0, len(older))
		retire := func(name string) {
			if t := older[name]; t != nil && t != prev[name] {
				poison.Tensor(t)
				spare = append(spare, t)
			}
		}
		for _, p := range params {
			retire(p.Name)
		}
		for _, b := range buffers {
			retire(b.Name)
		}
	}
	out := make(map[string]*tensor.Tensor, len(prev))
	keep := func(name string, t *tensor.Tensor) {
		if old := prev[name]; old != nil && old.SameShape(t) && old.EqualBits(t) {
			out[name] = old
			return
		}
		for i, s := range spare {
			if s.SameShape(t) {
				s.CopyFrom(t)
				out[name] = s
				spare = slices.Delete(spare, i, i+1)
				return
			}
		}
		out[name] = t.Clone()
	}
	for _, p := range params {
		keep(p.Name, p.Value.T)
	}
	for _, b := range buffers {
		keep(b.Name, b.T)
	}
	return out
}

var _ fl.EachRunner = (*Pipeline)(nil)
