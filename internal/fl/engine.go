package fl

import (
	"fmt"
	"math/rand"
	"time"

	"reffil/internal/data"
	"reffil/internal/metrics"
	"reffil/internal/nn"
	"reffil/internal/telemetry"
	"reffil/internal/tensor"
)

// Group classifies a client's relationship to the current task, per the
// paper's client-increment strategy.
type Group int

// Client groups (paper §II): Old clients retain only past-domain data,
// In-between clients hold both old and new domain data, New clients joined
// at the current task with only new-domain data.
const (
	GroupOld Group = iota + 1
	GroupInBetween
	GroupNew
)

// String renders the group name.
func (g Group) String() string {
	switch g {
	case GroupOld:
		return "Uo"
	case GroupInBetween:
		return "Ub"
	case GroupNew:
		return "Un"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// LocalContext is everything an Algorithm needs for one client's local
// training phase in one communication round.
type LocalContext struct {
	// ClientID identifies the participant.
	ClientID int
	// Task is the global incremental-task index of the current stage.
	Task int
	// ClientTask is the task whose domain this client is currently
	// learning (Old clients lag behind Task).
	ClientTask int
	// Group is the client's increment group for this stage.
	Group Group
	// Data is the client's local training shard. In-between clients see
	// the concatenation of their old and new domain shards (Algorithm 1
	// line 17).
	Data *data.Dataset
	// Epochs, BatchSize and LR parameterize local SGD.
	Epochs    int
	BatchSize int
	LR        float64
	// Rng is the client's deterministic randomness source.
	Rng *rand.Rand
	// Arena, when non-nil, is the step-scoped allocator the runner's
	// training goroutine lends this job: SGD draws each step's tensors
	// from it and resets it after every optimiser step. Nil trains on the
	// heap, with the same results.
	Arena *tensor.Arena
	// JobArena, when non-nil, is the job-scoped allocator lent beside
	// Arena: SGD draws the parameters' Grads and the optimiser's
	// velocities from it, which outlive every step of the job. Whoever
	// lends it resets it only once nothing reads the job's replica any
	// more — LocalRunner, when the slot starts its next job. Nil keeps
	// them on the heap, with the same results.
	JobArena *tensor.Arena
}

// Upload is the method-specific payload a client sends beside its weights
// (RefFiL: the per-class averaged local prompt group of Eq. 5).
type Upload interface{}

// Algorithm is one federated continual-learning method. The engine owns the
// federation mechanics; the algorithm owns the model and losses.
//
// The contract is replica-based so that clients of one round can train
// concurrently: each participating client trains an isolated replica of the
// current global model (possibly on another goroutine), and the engine reads
// the replica's trained Global() state back as the client's update. The
// parent algorithm's Global() is never touched between the broadcast and
// aggregation.
//
// A runner may keep a replica across rounds (LocalRunner pools them): it
// spawns one only when none is idle, and otherwise copies the parent's
// current Global() parameters and buffers into an idle replica in place.
// That copy is a complete re-spawn because LocalTrain writes only the
// receiver's Global(), and every other part of a replica is either fixed at
// construction or shared with its parent by reference — so what the parent's
// task hooks, ServerRound and LoadWireState change outside Global() must be
// written through state the parent and its replicas share, never by
// replacing a field of the parent alone.
type Algorithm interface {
	// Name identifies the method in reports.
	Name() string
	// Global returns the module holding all aggregated state. Its parameter
	// and buffer names, shapes and tensors are fixed for the algorithm's
	// life: training and LoadStateDict write the tensors in place.
	Global() nn.Module
	// Spawn returns an isolated per-client replica: its Global() must share
	// no tensors with the parent's (or any other replica's), holding a deep
	// copy of the current global state. Server-side state outside Global()
	// — frozen distillation teachers, Fisher anchors, the clustered prompt
	// bank and task counter — is shared by reference, since nothing mutates
	// it while replicas train, and a kept replica must see the parent's
	// later changes to it. Spawn must be safe to call concurrently with
	// other Spawn calls and with LocalTrain running on previously spawned
	// replicas.
	Spawn() (Algorithm, error)
	// OnTaskStart runs before the first round of a task stage (e.g. LwF
	// snapshots the previous global model as the distillation teacher).
	OnTaskStart(task int) error
	// OnTaskEnd runs after the last round of a task stage with a sample of
	// the stage's training data (e.g. EWC consolidates Fisher information).
	OnTaskEnd(task int, sample *data.Dataset) error
	// LocalTrain performs one client's local epochs, mutating the
	// receiver's own Global() parameters and buffers in place and nothing
	// else of the receiver. Runners always call it on a replica, never on
	// the parent.
	LocalTrain(ctx *LocalContext) (Upload, error)
	// ServerRound processes the round's uploads after FedAvg (RefFiL:
	// FINCH prompt clustering, Eq. 7-8). Runs serially on the parent.
	ServerRound(task, round int, uploads []Upload) error
	// Predict classifies a batch with the current global model.
	Predict(x *tensor.Tensor) ([]int, error)
}

// Config parameterizes a federated domain-incremental run.
type Config struct {
	// Rounds is the number of communication rounds per task (paper: 30).
	Rounds int
	// Epochs is the number of local epochs per selected client (paper: 20).
	Epochs int
	// BatchSize is the local minibatch size.
	BatchSize int
	// LR is the local learning rate.
	LR float64
	// InitialClients is the participant pool size at task 0.
	InitialClients int
	// SelectPerRound is how many participants are selected each round.
	SelectPerRound int
	// ClientsPerTaskInc is how many new participants (Un) join per task.
	ClientsPerTaskInc int
	// TransferFrac is the fraction of existing clients transitioning to
	// each new task (paper: 0.8).
	TransferFrac float64
	// Alpha is the quantity-shift power-law exponent for partitioning.
	Alpha float64
	// TrainPerDomain and TestPerDomain size each domain's datasets.
	TrainPerDomain, TestPerDomain int
	// EvalBatch is the evaluation batch size.
	EvalBatch int
	// DropoutProb simulates clients failing to return an update.
	DropoutProb float64
	// Seed drives all engine-level randomness.
	Seed int64
	// Workers caps how many selected clients train concurrently within one
	// communication round. 0 means runtime.NumCPU(); 1 trains one job at a
	// time. Results are identical at every worker count: all engine
	// randomness is drawn before the fan-out, each client trains an isolated
	// replica under its own seeded RNG, and updates aggregate in selection
	// order.
	Workers int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("fl: rounds must be positive, got %d", c.Rounds)
	case c.Epochs <= 0:
		return fmt.Errorf("fl: epochs must be positive, got %d", c.Epochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("fl: batch size must be positive, got %d", c.BatchSize)
	case c.LR <= 0:
		return fmt.Errorf("fl: learning rate must be positive, got %v", c.LR)
	case c.InitialClients <= 0:
		return fmt.Errorf("fl: initial clients must be positive, got %d", c.InitialClients)
	case c.SelectPerRound <= 0:
		return fmt.Errorf("fl: selection count must be positive, got %d", c.SelectPerRound)
	case c.ClientsPerTaskInc < 0:
		return fmt.Errorf("fl: clients per task must be non-negative, got %d", c.ClientsPerTaskInc)
	case c.TransferFrac < 0 || c.TransferFrac > 1:
		return fmt.Errorf("fl: transfer fraction must be in [0,1], got %v", c.TransferFrac)
	case c.Alpha < 0:
		return fmt.Errorf("fl: alpha must be non-negative, got %v", c.Alpha)
	case c.TrainPerDomain <= 0 || c.TestPerDomain <= 0:
		return fmt.Errorf("fl: dataset sizes must be positive")
	case c.EvalBatch <= 0:
		return fmt.Errorf("fl: eval batch must be positive, got %d", c.EvalBatch)
	case c.DropoutProb < 0 || c.DropoutProb >= 1:
		return fmt.Errorf("fl: dropout probability must be in [0,1), got %v", c.DropoutProb)
	case c.Workers < 0:
		return fmt.Errorf("fl: workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// shardRef records a client's coordinates inside one task's deterministic
// partition, so its shard can be described to remote runners without
// shipping data (see ShardSpec).
type shardRef struct {
	// learners is how many clients partitioned the task's domain.
	learners int
	// index is this client's slot in that partition.
	index int
}

// client is the engine's view of one participant.
type client struct {
	id int
	// task is the incremental task the client is currently learning.
	task int
	// group for the current stage.
	group Group
	// partRefs maps task index -> the client's shard coordinates in that
	// task's partition.
	partRefs map[int]shardRef
	// joined is the stage at which the client entered the pool.
	joined int
}

// Engine runs federated domain-incremental learning over a task sequence.
// Round execution is delegated to a pluggable EachRunner, so the same
// federation mechanics drive an in-process worker pool and a TCP fan-out
// across machines.
type Engine struct {
	cfg     Config
	alg     Algorithm
	runner  EachRunner
	rng     *rand.Rand
	clients []*client
	// family/domains describe the data of the current Run, for job specs.
	family  *data.Family
	domains []string
	// parts builds each round's jobs from their specs, seeded with every
	// task's partition as advanceClients splits it.
	parts Partitions
	// testSets[i] is task i's held-out evaluation set.
	testSets []*data.Dataset
	// Progress, when non-nil, receives a line per round (for CLIs).
	Progress func(msg string)
	// Checkpoint, when non-nil, receives a resumable snapshot after every
	// installed round and after every completed task — every state Run can
	// later be resumed from via Resume. Returning an error aborts the run.
	// Rounds are synchronous, so nothing is in flight at a snapshot: every
	// one of them resumes bit-identically. The snapshot is valid only
	// during the call: its Global is the live model's own tensors, which
	// the next round overwrites, so a hook that keeps it past the call
	// copies it.
	Checkpoint func(ResumeState) error
	// Resume, when non-nil, fast-forwards Run to the snapshot's position
	// before executing: completed tasks replay their RNG draws (client
	// advancement, selection, dropout) with results discarded and copy
	// their recorded accuracy rows, then the snapshot's global model and
	// wire state are installed and the run proceeds normally — producing an
	// accuracy matrix bit-identical to the uninterrupted run's.
	Resume *ResumeState
	// Telemetry, when non-nil, receives an install observation per round —
	// fold count, unanimity bookkeeping, and the finalize+load+server-hook
	// span. Observation only; results are unaffected.
	Telemetry *telemetry.Sink
	// acc is the streaming FedAvg fold, kept across rounds so that each
	// round sums into the storage of the last (see runRound).
	acc Accumulator
}

// NewEngineWithRunner builds an engine that executes each round's jobs on
// the given runner. A networked runner must train replicas of the same
// algorithm instance (see transport.NewPipeline). A nil runner selects the
// in-process LocalRunner over cfg.Workers.
func NewEngineWithRunner(cfg Config, alg Algorithm, runner EachRunner) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if alg == nil {
		return nil, fmt.Errorf("fl: nil algorithm")
	}
	if runner == nil {
		runner = &LocalRunner{Alg: alg, Workers: cfg.Workers}
	}
	return &Engine{cfg: cfg, alg: alg, runner: runner, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Run executes the full task sequence: for each domain, Rounds communication
// rounds of select -> local train -> FedAvg -> server hook, then evaluation
// on all seen domains. It returns the completed accuracy matrix.
func (e *Engine) Run(family *data.Family, domains []string) (*metrics.Matrix, error) {
	if len(domains) == 0 {
		return nil, fmt.Errorf("fl: no domains to learn")
	}
	mat, err := metrics.NewMatrix(len(domains))
	if err != nil {
		return nil, err
	}
	e.clients = nil
	e.parts = Partitions{}
	e.family = family
	e.domains = domains
	e.testSets = make([]*data.Dataset, len(domains))
	// One arena serves every evaluation of the run (see evaluate).
	var evalArena tensor.Arena

	resume := e.Resume
	if resume != nil {
		if err := validateResume(resume, len(domains), e.cfg.Rounds); err != nil {
			return nil, err
		}
	}

	for t, domain := range domains {
		train, test, err := family.Generate(domain, e.cfg.TrainPerDomain, e.cfg.TestPerDomain, TaskSeed(e.cfg.Seed, t))
		if err != nil {
			return nil, fmt.Errorf("fl: task %d: %w", t, err)
		}
		e.testSets[t] = test
		if err := e.advanceClients(t, train); err != nil {
			return nil, err
		}
		if resume != nil && t < resume.NextTask {
			// Fast-forward a completed task: advanceClients above already
			// made the transition draw; re-make the per-round selection and
			// dropout draws the original run made (results discarded) and
			// copy the recorded accuracy row. The task hooks are skipped —
			// their effects live inside the snapshot installed at the
			// resume point.
			for r := 0; r < e.cfg.Rounds; r++ {
				if _, err := e.roundJobs(t, r); err != nil {
					return nil, err
				}
			}
			if err := copyResumeRow(mat, resume, t); err != nil {
				return nil, err
			}
			continue
		}
		startRound := 0
		if resume != nil && t == resume.NextTask {
			startRound = resume.NextRound
			for r := 0; r < startRound; r++ {
				if _, err := e.roundJobs(t, r); err != nil {
					return nil, err
				}
			}
			if err := e.installResume(resume); err != nil {
				return nil, err
			}
			if startRound == 0 {
				// Task-boundary snapshot: taken before this task's
				// OnTaskStart ran, so the task starts normally.
				if err := e.alg.OnTaskStart(t); err != nil {
					return nil, fmt.Errorf("fl: %s OnTaskStart(%d): %w", e.alg.Name(), t, err)
				}
			}
			// A mid-task snapshot (startRound > 0) already contains
			// OnTaskStart's effects in its global/wire state.
			resume = nil
		} else {
			if err := e.alg.OnTaskStart(t); err != nil {
				return nil, fmt.Errorf("fl: %s OnTaskStart(%d): %w", e.alg.Name(), t, err)
			}
		}
		for r := startRound; r < e.cfg.Rounds; r++ {
			if err := e.runRound(t, r); err != nil {
				return nil, err
			}
			if err := e.checkpointAfter(t, r+1, mat); err != nil {
				return nil, err
			}
		}
		if err := e.alg.OnTaskEnd(t, train); err != nil {
			return nil, fmt.Errorf("fl: %s OnTaskEnd(%d): %w", e.alg.Name(), t, err)
		}
		for i := 0; i <= t; i++ {
			acc, err := e.evaluate(&evalArena, e.testSets[i])
			if err != nil {
				return nil, fmt.Errorf("fl: evaluating task %d after stage %d: %w", i, t, err)
			}
			if err := mat.Record(t, i, acc); err != nil {
				return nil, err
			}
		}
		if err := e.checkpointAfter(t+1, 0, mat); err != nil {
			return nil, err
		}
		if e.Progress != nil {
			e.Progress(fmt.Sprintf("[%s] task %d (%s) done: acc(current)=%.4f", e.alg.Name(), t, domain, mat.A[t][t]))
		}
	}
	if resume != nil {
		// The snapshot marks a finished run (NextTask == len(domains)):
		// nothing executed, but the algorithm state must still reflect the
		// completed run for anyone reading it after Run returns.
		if err := e.installResume(resume); err != nil {
			return nil, err
		}
	}
	return mat, nil
}

// advanceClients implements the client-increment strategy at the start of
// task t: a TransferFrac share of existing clients transitions to the new
// domain (becoming In-between), the rest stay Old, and ClientsPerTaskInc
// new clients join. The new domain's training data is partitioned with
// quantity shift over everyone who trains on it.
func (e *Engine) advanceClients(t int, train *data.Dataset) error {
	if t == 0 {
		for i := 0; i < e.cfg.InitialClients; i++ {
			e.clients = append(e.clients, &client{
				id:       i,
				task:     0,
				group:    GroupNew,
				partRefs: make(map[int]shardRef),
				joined:   0,
			})
		}
	} else {
		// Transition TransferFrac of the existing pool to the new task.
		perm := e.rng.Perm(len(e.clients))
		nTransfer := int(e.cfg.TransferFrac * float64(len(e.clients)))
		for i, pi := range perm {
			c := e.clients[pi]
			if i < nTransfer {
				c.task = t
				c.group = GroupInBetween
			} else {
				c.group = GroupOld
			}
		}
		for i := 0; i < e.cfg.ClientsPerTaskInc; i++ {
			e.clients = append(e.clients, &client{
				id:       len(e.clients),
				task:     t,
				group:    GroupNew,
				partRefs: make(map[int]shardRef),
				joined:   t,
			})
		}
	}
	// Partition the new domain among clients currently on task t. The
	// partition RNG is derived from (seed, task) — not the engine's ambient
	// stream — so a remote worker handed a ShardSpec re-runs the identical
	// partition from the spec alone, through the same split.
	var learners []*client
	for _, c := range e.clients {
		if c.task == t {
			learners = append(learners, c)
		}
	}
	if len(learners) == 0 {
		return fmt.Errorf("fl: task %d has no learners", t)
	}
	spec := e.taskSpec(t, len(learners))
	shards, err := spec.split(train)
	if err != nil {
		return err
	}
	e.parts.put(spec, shards)
	for i, c := range learners {
		c.partRefs[t] = shardRef{learners: len(learners), index: i}
	}
	return nil
}

// runRound performs one communication round of Algorithm 1: random
// selection, local training on isolated model replicas via the configured
// runner, FedAvg in selection order, and the method's server-side hook.
//
// Determinism at any worker count — and across runner implementations —
// rests on three invariants: every draw on the engine RNG (selection,
// dropout) happens before the fan-out, in selection order; each client
// trains an isolated replica under its own deterministically seeded RNG,
// touching no shared mutable state; and aggregation consumes updates in
// selection order regardless of which worker finished first.
//
// Phases 2 and 3 interleave (parallel training, serial folding): each
// result folds into the streaming FedAvg accumulator — in job order, with
// the job's own weight — as soon as the runner has handed over every result
// before it, so the engine holds the running sums plus only the results
// that completed out of order, not every selected client's full dict until
// the round ends.
//
// Each result is released as soon as it is folded, except the first: the
// accumulator borrows that one, and the aggregate may alias it, until
// install has loaded the aggregate into the global.
//
// The accumulator is the engine's own, Reset at the start of every round:
// the sums a key materialized last round are zero-filled and reused, which
// is safe because install copied the last aggregate into the global before
// this round began.
//
// A round that folds nothing — every selected client dropped out — leaves
// the global untouched.
func (e *Engine) runRound(t, r int) error {
	jobs, err := e.roundJobs(t, r)
	if err != nil {
		return err
	}
	acc := &e.acc
	acc.Reset()
	var uploads []Upload
	var first Result
	defer func() { first.release() }()
	err = runInJobOrder(e.runner, jobs, func(i int, res Result) error {
		if err := acc.Fold(res.Dict, jobs[i].Weight); err != nil {
			return fmt.Errorf("fl: aggregating round %d: %w", r, err)
		}
		if res.Upload != nil {
			uploads = append(uploads, res.Upload)
		}
		if i == 0 {
			first = res
		} else {
			res.release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if acc.Folded() == 0 {
		return nil
	}
	return e.install(t, r, acc, uploads)
}

// runInJobOrder runs jobs on er and hands each result to fold in job order,
// never arrival order — which is what keeps the aggregate bit-identical at
// any worker count and on any runner — buffering only the results
// that completed ahead of their turn. A round with no jobs never reaches
// the runner.
func runInJobOrder(er EachRunner, jobs []Job, fold func(i int, res Result) error) error {
	if len(jobs) == 0 {
		return nil
	}
	next := 0
	buffered := make(map[int]Result)
	err := er.RunEach(jobs, func(i int, res Result) error {
		if i != next {
			buffered[i] = res
			return nil
		}
		if err := fold(i, res); err != nil {
			return err
		}
		for next++; ; next++ {
			res, ok := buffered[next]
			if !ok {
				break
			}
			delete(buffered, next)
			if err := fold(next, res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if next != len(jobs) {
		return fmt.Errorf("fl: runner completed %d of %d jobs", next, len(jobs))
	}
	return nil
}

// roundJobs is round phase 1 (serial): fix the round's participant set and
// all per-client inputs. Every draw on the engine RNG happens here, in
// selection order, before any fan-out; the global model is only read,
// never written. Each job is built from its spec, as a networked worker
// builds it.
func (e *Engine) roundJobs(t, r int) ([]Job, error) {
	selected := e.selectClients()
	jobs := make([]Job, 0, len(selected))
	for _, c := range selected {
		job, err := e.parts.Job(e.jobSpec(c, t, r))
		if err != nil {
			return nil, err
		}
		if job.Ctx.Data.Len() == 0 {
			continue
		}
		if e.cfg.DropoutProb > 0 && e.rng.Float64() < e.cfg.DropoutProb {
			continue // client failed to report back this round
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// install is round phase 3's tail (serial): finalize the streaming FedAvg
// fold, install the aggregate into the global model, and run the method's
// server hook.
func (e *Engine) install(t, r int, acc *Accumulator, uploads []Upload) error {
	//fedvet:ignore wallclock telemetry-only install duration; the value never reaches state, frames, or checkpoints
	start := time.Now()
	folded := acc.Folded()
	avg, err := acc.Finalize()
	if err != nil {
		return fmt.Errorf("fl: aggregating round %d: %w", r, err)
	}
	if err := nn.LoadStateDict(e.alg.Global(), avg); err != nil {
		return fmt.Errorf("fl: installing aggregate: %w", err)
	}
	if err := e.alg.ServerRound(t, r, uploads); err != nil {
		return fmt.Errorf("fl: %s ServerRound: %w", e.alg.Name(), err)
	}
	if e.Telemetry != nil {
		unan, broken := acc.UnanimityStats()
		//fedvet:ignore wallclock telemetry-only install duration; the value never reaches state, frames, or checkpoints
		e.Telemetry.Installed(t, r, folded, unan, broken, time.Since(start))
	}
	return nil
}

// jobSpec builds the wire-serializable description of client c's job for
// round r of task t: its current shard, prepended with its previous-task
// shard for In-between clients that learned the previous task (Algorithm 1
// line 17).
func (e *Engine) jobSpec(c *client, t, r int) JobSpec {
	spec := JobSpec{
		ClientID:   c.id,
		Task:       t,
		ClientTask: c.task,
		Group:      c.group,
		Round:      r,
		Epochs:     e.cfg.Epochs,
		BatchSize:  e.cfg.BatchSize,
		LR:         e.cfg.LR,
		RngSeed:    ClientSeed(e.cfg.Seed, c.id, t, r),
	}
	if c.group == GroupInBetween {
		if _, ok := c.partRefs[c.task-1]; ok {
			spec.Shards = append(spec.Shards, e.shardSpec(c, c.task-1))
		}
	}
	spec.Shards = append(spec.Shards, e.shardSpec(c, c.task))
	return spec
}

// shardSpec describes client c's shard of the given task's partition.
func (e *Engine) shardSpec(c *client, task int) ShardSpec {
	ref := c.partRefs[task]
	spec := e.taskSpec(task, ref.learners)
	spec.Index = ref.index
	return spec
}

// taskSpec describes the given task's partition among learners clients, at
// slot 0.
func (e *Engine) taskSpec(task, learners int) ShardSpec {
	return ShardSpec{
		Dataset:        e.family.Name,
		Image:          e.family.Size,
		Classes:        e.family.Classes,
		Domain:         e.domains[task],
		Task:           task,
		TrainPerDomain: e.cfg.TrainPerDomain,
		TestPerDomain:  e.cfg.TestPerDomain,
		GenSeed:        TaskSeed(e.cfg.Seed, task),
		Learners:       learners,
		Alpha:          e.cfg.Alpha,
		PartSeed:       PartitionSeed(e.cfg.Seed, task),
	}
}

// selectClients samples min(SelectPerRound, pool) distinct participants.
func (e *Engine) selectClients() []*client {
	n := e.cfg.SelectPerRound
	if n > len(e.clients) {
		n = len(e.clients)
	}
	perm := e.rng.Perm(len(e.clients))
	out := make([]*client, 0, n)
	for _, i := range perm[:n] {
		out = append(out, e.clients[i])
	}
	return out
}

// evaluate runs the algorithm's Predict over a test set. Each batch is
// collated into arena, so it and the forward pass computed from it are
// drawn there and reclaimed for the next batch once its predictions (plain
// ints) are out. Run lends every call the same arena, so every evaluation
// after the first draws the buffers the first one made: a warm pass draws
// no tensor from the heap.
func (e *Engine) evaluate(arena *tensor.Arena, ds *data.Dataset) (float64, error) {
	batches, err := data.BatchIndices(ds, e.cfg.EvalBatch, nil)
	if err != nil {
		return 0, err
	}
	var pred, labels []int
	for _, idx := range batches {
		b := data.Collate(arena, ds, idx)
		p, err := e.alg.Predict(b.X)
		arena.Reset()
		if err != nil {
			return 0, err
		}
		pred = append(pred, p...)
		labels = append(labels, b.Y...)
	}
	return metrics.Accuracy(pred, labels)
}
