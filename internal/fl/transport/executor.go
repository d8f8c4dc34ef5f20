package transport

import (
	"fmt"

	"reffil/internal/fl"
	"reffil/internal/fl/internal/poison"
	"reffil/internal/fl/wire"
	"reffil/internal/nn"
)

// Executor is the worker side of a networked federation round: given a
// broadcast, it applies the coordinator's versioned state frame to its
// local algorithm instance — a full snapshot, a per-key diff against the
// state it already holds, or nothing at all when it is already current —
// loads the method wire state only when the frame carries new payload
// bytes, builds each assigned job from its spec through fl.Partitions, the
// builder the in-process engine uses (no data crosses the wire), and runs
// its slice of the round through the same fl.LocalRunner worker pool the
// engine uses — pooled replicas, per-job seeded RNGs — acknowledging each
// job under its index in the round the moment it completes, and releasing
// each job's replica back to the pool as soon as its upload patch is
// encoded. The index is the broadcast's: the pool sees only the specs.
// Per-job acks are what let the coordinator salvage a crashing worker's
// finished work and re-queue only the rest. Every ack carries the trained
// state as a wire.Patch: a lossless diff against the round's broadcast base
// — exactly what this executor's tracker holds after applying the frame,
// and exactly what the coordinator mirrors for this worker, so the upload
// reconstructs bit for bit.
//
// The algorithm must be constructed exactly as the coordinator's (same
// method, model config, task horizon and construction seed): broadcast
// state only covers Global()'s state dict plus the wire state, so any
// architecture or frozen-initialization mismatch would diverge.
//
// A broadcast carries no placement history: a job that another worker
// started before dying arrives here as one more broadcast of the round,
// re-executes from the spec alone and — every job being a self-contained
// deterministic computation — produces the byte-identical result. The
// frame's version checks guarantee the re-queued job trains against exactly
// the state the coordinator intended: a delta against a base this worker
// does not hold is rejected, not guessed at.
type Executor struct {
	alg fl.Algorithm
	// pool runs every broadcast's jobs. It is kept for the executor's life
	// because it owns the training goroutines' arenas and the replicas.
	pool *fl.LocalRunner
	// parts builds every broadcast's jobs, keeping each task's partition
	// across rounds.
	parts fl.Partitions
	// tracker is this worker's receive-side state machine: the state
	// version/dict and payload version currently installed.
	tracker wire.Tracker
	// upload is the storage every upload patch is packed into. RunEach
	// serializes done, and emit has written an ack to the connection when
	// it returns, so one buffer serves every job at any -jobs count.
	upload wire.Buffer
}

// NewExecutor builds an executor over the worker's algorithm instance.
// workers caps concurrent jobs per broadcast (fl.LocalRunner semantics: 0
// means NumCPU).
func NewExecutor(alg fl.Algorithm, workers int) (*Executor, error) {
	if alg == nil {
		return nil, fmt.Errorf("transport: executor needs an algorithm")
	}
	return &Executor{alg: alg, pool: &fl.LocalRunner{Alg: alg, Workers: workers}}, nil
}

// ResetStream forgets the frame stream of a lost connection; call it before
// serving a re-dialed one. A re-dial is admitted into a fresh slot whose
// coordinator-side mirror starts at version 0 with no payload, so the
// tracker of the old stream would reject the new slot's first frame
// whenever it skips a payload the old stream's version stamps disagree
// with (a restarted coordinator's versions start over). The job builder's
// partitions are kept: they do not depend on the connection.
func (e *Executor) ResetStream() {
	e.tracker = wire.Tracker{}
}

// Handle executes one broadcast's job assignment through the local worker
// pool, emitting each job's result as it completes (completion order; each
// ack carries its job's Index in the round). Pass it to Worker.Serve, whose
// emit already serializes onto the connection. A JobResult's patch aliases
// the executor's upload buffer, which the next job overwrites: emit must be
// done with it when it returns.
func (e *Executor) Handle(b Broadcast, emit func(JobResult) error) error {
	stateChanged, payload, payloadChanged, err := e.tracker.Apply(&b.Frame)
	if err != nil {
		return fmt.Errorf("broadcast frame: %w", err)
	}
	if stateChanged {
		if err := nn.LoadStateDict(e.alg.Global(), e.tracker.Dict); err != nil {
			return fmt.Errorf("installing broadcast state: %w", err)
		}
	}
	if payloadChanged {
		if ws, ok := e.alg.(fl.WireStater); ok {
			if err := ws.LoadWireState(payload); err != nil {
				return fmt.Errorf("installing wire state: %w", err)
			}
		} else if len(payload) > 0 {
			return fmt.Errorf("%s received %d bytes of wire state it cannot load", e.alg.Name(), len(payload))
		}
	}
	// done reads the job list, not b: capturing b would move it to the heap.
	entries := b.Jobs
	jobs := make([]fl.Job, len(entries))
	for i, entry := range entries {
		job, err := e.parts.Job(entry.Spec)
		if err != nil {
			return fmt.Errorf("job %d (client %d): %w", entry.Index, entry.Spec.ClientID, err)
		}
		jobs[i] = job
	}
	if len(jobs) == 0 {
		return nil
	}
	// RunEach serializes done calls, so emit never runs concurrently.
	return e.pool.RunEach(jobs, func(i int, res fl.Result) error {
		// Diff the trained replica against the round's broadcast base —
		// exactly the dict the coordinator mirrors for this worker, so the
		// patch reconstructs there bit for bit. A nil base (a worker
		// executing jobs with no installed state) encodes as a full
		// snapshot, which the coordinator counts as an upload fallback.
		p, err := e.upload.Encode(e.tracker.Dict, res.Dict)
		// The patch is the upload buffer's bytes, so the replica behind
		// res.Dict goes back to the pool for the next job.
		if res.Release != nil {
			res.Release()
		}
		if err != nil {
			return fmt.Errorf("job %d upload state: %w", entries[i].Index, err)
		}
		defer func() {
			poison.Bytes(p.Dense[:cap(p.Dense)])
			poison.Bytes(p.Packed[:cap(p.Packed)])
		}()
		jr := JobResult{Index: entries[i].Index, Patch: p}
		if res.Upload != nil {
			uc, ok := e.alg.(fl.UploadCoder)
			if !ok {
				return fmt.Errorf("%s produced an upload it cannot encode", e.alg.Name())
			}
			jr.Upload, err = uc.EncodeUpload(res.Upload)
			if err != nil {
				return fmt.Errorf("job %d upload: %w", entries[i].Index, err)
			}
		}
		return emit(jr)
	})
}
