package transport

import (
	"fmt"

	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/fl/wire"
	"reffil/internal/nn"
)

// Executor is the worker side of a networked federation round: given a
// broadcast, it applies the coordinator's versioned state frame to its
// local algorithm instance — a full snapshot, a per-key diff against the
// state it already holds, or nothing at all when it is already current —
// loads the method wire state only when the frame carries new payload
// bytes, derives each assigned job's data shard from its spec (no data
// crosses the wire), and runs its slice of the round through the same
// fl.LocalRunner worker pool the in-process engine uses — Spawn replicas,
// per-job seeded RNGs — acknowledging each job the moment it completes.
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
	// because it owns the training goroutines' step arenas.
	pool *fl.LocalRunner
	// partitions caches each task's partition across rounds, keyed by a
	// shard spec with Index zeroed: a task's shards are immutable, and one
	// generation of the domain serves every client of the task, where
	// materializing each shard would regenerate the domain once per client.
	partitions map[fl.ShardSpec][]*data.Dataset
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
	return &Executor{
		alg:        alg,
		pool:       &fl.LocalRunner{Alg: alg, Workers: workers},
		partitions: make(map[fl.ShardSpec][]*data.Dataset),
	}, nil
}

// ResetStream forgets the frame stream of a lost connection; call it before
// serving a re-dialed one. A re-dial is admitted into a fresh slot whose
// coordinator-side mirror starts at version 0 with no payload, so the
// tracker of the old stream would reject the new slot's first frame
// whenever it is a bare KindNone (the slot is idle that round) or skips an
// unchanged payload. The partition cache is kept: partitions do not depend
// on the connection.
func (e *Executor) ResetStream() {
	e.tracker = wire.Tracker{}
}

// Handle executes one broadcast's job assignment, emitting each job's
// result as it completes (completion order; the coordinator maps acks by
// their Index). Pass it to Worker.Serve, whose emit already serializes
// onto the connection. A JobResult's patch aliases the executor's upload
// buffer, which the next job overwrites: emit must be done with it when it
// returns.
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
	return e.runJobs(b.Jobs, emit)
}

// runJobs materializes and trains the broadcast's job slice through the
// local worker pool, emitting one ack per job in completion order.
func (e *Executor) runJobs(specs []fl.JobSpec, emit func(JobResult) error) error {
	jobs := make([]fl.Job, len(specs))
	for i, spec := range specs {
		ds, err := e.dataset(spec)
		if err != nil {
			return fmt.Errorf("job %d (client %d): %w", i, spec.ClientID, err)
		}
		jobs[i] = fl.Job{Ctx: spec.NewLocalContext(ds), Spec: spec, Weight: float64(ds.Len())}
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
		if err != nil {
			return fmt.Errorf("job %d upload state: %w", i, err)
		}
		defer func() {
			poison(p.Dense[:cap(p.Dense)])
			poison(p.Packed[:cap(p.Packed)])
		}()
		jr := JobResult{Index: i, Patch: p}
		if res.Upload != nil {
			uc, ok := e.alg.(fl.UploadCoder)
			if !ok {
				return fmt.Errorf("%s produced an upload it cannot encode", e.alg.Name())
			}
			jr.Upload, err = uc.EncodeUpload(res.Upload)
			if err != nil {
				return fmt.Errorf("job %d upload: %w", i, err)
			}
		}
		return emit(jr)
	})
}

// dataset assembles the job's local dataset from its shards' partitions,
// partitioning a task's domain only the first time any job names it.
func (e *Executor) dataset(spec fl.JobSpec) (*data.Dataset, error) {
	shards := make([]*data.Dataset, len(spec.Shards))
	for i, s := range spec.Shards {
		key := s
		key.Index = 0
		part, ok := e.partitions[key]
		if !ok {
			var err error
			if part, err = s.Partition(); err != nil {
				return nil, err
			}
			e.partitions[key] = part
		}
		sh, err := s.ShardOf(part)
		if err != nil {
			return nil, err
		}
		shards[i] = sh
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("job spec for client %d carries no shards", spec.ClientID)
	}
	return fl.MergeShards(spec.ClientID, shards), nil
}
