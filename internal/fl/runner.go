package fl

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"reffil/internal/data"
	"reffil/internal/fl/internal/poison"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// Job is one selected client's unit of work for a communication round: the
// engine fixes every input before the fan-out, so any EachRunner —
// in-process or networked — executes an identical, self-contained
// computation.
type Job struct {
	// Ctx is the fully materialized local context (shard included). It is
	// what in-process runners consume; it never crosses a network.
	Ctx *LocalContext
	// Spec is the wire-serializable description of the same work, which
	// Ctx was built from (Partitions.Job): remote runners ship it to
	// workers, which rebuild the job from it through their own Partitions
	// and so reproduce Ctx bit-for-bit.
	Spec JobSpec
	// Weight is the client's FedAvg weight (its local dataset size).
	Weight float64
}

// Result is what an EachRunner hands back for one Job: the trained replica's
// state dict (the client's FedAvg payload) and the method-specific upload.
// The dict is the receiver's to read, never to write: LocalRunner hands over
// the replica's own tensors, and a networked runner the tensors it decoded
// the upload into.
type Result struct {
	Dict   map[string]*tensor.Tensor
	Upload Upload
	// Release, when non-nil, hands the storage behind Dict back to the
	// runner for a later result: LocalRunner puts the replica back in its
	// pool, to be brought to the next global and trained again, and a
	// networked runner decodes a later upload into the same tensors. The
	// receiver calls it at most once, when it reads Dict no more. A result
	// never released costs the runner fresh storage (LocalRunner: a cold
	// Spawn), never a wrong result. Upload is not part of that storage.
	Release func()
}

// release calls r.Release, if the runner set one.
func (r Result) release() {
	if r.Release != nil {
		r.Release()
	}
}

// EachRunner executes all of one round's local-training jobs and streams
// each job's result back as it completes (LocalRunner in process,
// transport.Pipeline over TCP): acks fold into the streaming FedAvg
// Accumulator as they arrive instead of buffering every client's full state
// dict until the round ends. The contract every implementation must honour
// for the engine's determinism guarantee:
//
//   - done(i, res) reports the result of jobs[i], regardless of execution
//     order or placement;
//   - each job trains an isolated replica of the algorithm's current global
//     state (Spawn semantics), seeded only by its own Spec/Ctx;
//   - no job observes another job's mutations.
//
// Under those rules the in-process worker pool and a TCP fan-out across
// machines produce identical accuracy matrices for the same seed.
type EachRunner interface {
	// RunEach fires done(i, result of jobs[i]) once per job, in completion
	// order (not job order); done calls are serialized. An error from done
	// cancels the remaining jobs like a training error.
	RunEach(jobs []Job, done func(i int, res Result) error) error
}

// WireStater is implemented by algorithms whose LocalTrain reads
// server-side state living outside Global()'s state dict — LwF's frozen
// distillation teacher, EWC's consolidated Fisher/anchor maps, RefFiL's
// clustered prompt bank and task counter. Networked runners version the
// encoded bytes (internal/fl/wire) and re-broadcast them only when they
// change — state that moves at task boundaries, like the teacher or the
// Fisher maps, crosses the wire once per task instead of every round —
// and workers load each new version before training so that their
// replicas match the server's replicas exactly. EncodeWireState
// must therefore be deterministic for unchanged state: equal state, equal
// bytes (the checkpoint dict form, which sorts its keys, qualifies).
// Algorithms whose mutable state is entirely inside Global() need not
// implement it.
type WireStater interface {
	EncodeWireState() ([]byte, error)
	LoadWireState(b []byte) error
}

// UploadCoder is implemented by algorithms whose LocalTrain returns a
// non-nil Upload (RefFiL's per-class local prompt groups) so networked
// runners can move uploads across the wire. Encode runs on the worker,
// Decode on the coordinator; Decode(Encode(u)) must be equivalent to u as
// seen by ServerRound.
type UploadCoder interface {
	EncodeUpload(up Upload) ([]byte, error)
	DecodeUpload(b []byte) (Upload, error)
}

// TaskSeed derives the deterministic data-generation seed for a task from
// the run seed. Coordinator and workers use the same derivation, so domain
// datasets are regenerated identically on every machine and never cross
// the wire.
func TaskSeed(seed int64, task int) int64 { return seed + int64(task)*1000 }

// PartitionSeed derives the RNG seed for quantity-shift partitioning of a
// task's domain among its learners. It is independent of the engine's
// ambient RNG stream precisely so that remote workers can re-run the
// partition from the spec alone.
func PartitionSeed(seed int64, task int) int64 {
	const mix = 0x9E3779B97F4A7C15 // splitmix64 increment
	return int64(uint64(seed) ^ uint64(task+1)*mix)
}

// ClientSeed derives the local-training RNG seed for one client in one
// round.
func ClientSeed(seed int64, clientID, task, round int) int64 {
	return seed ^ int64(clientID)<<20 ^ int64(task)<<10 ^ int64(round)
}

// ShardSpec pinpoints one client's training shard of one task without
// carrying any data: dataset family, domain, generation seed, and the
// shard's coordinates inside the deterministic quantity-shift partition.
// Partition reconstructs the exact partition the engine made, Materialize
// the one shard.
type ShardSpec struct {
	// Dataset and Image identify the synthetic family (data.NewFamily);
	// Classes is the family's class count (Family.WithClassLimit), which
	// scaled-down presets cut below the dataset's own.
	Dataset string
	Image   int
	Classes int
	// Domain is the task's domain name; Task its incremental index.
	Domain string
	Task   int
	// TrainPerDomain/TestPerDomain size the generated datasets; both are
	// needed because generation draws them from one RNG stream.
	TrainPerDomain, TestPerDomain int
	// GenSeed seeds dataset generation (TaskSeed of the run seed).
	GenSeed int64
	// Learners is how many clients partitioned this task's domain, Index
	// this client's slot, Alpha the quantity-shift exponent and PartSeed
	// the partition RNG seed (PartitionSeed of the run seed).
	Learners int
	Index    int
	Alpha    float64
	PartSeed int64
}

// Partition regenerates the whole partition the spec's shard belongs to:
// generate the domain's training set, re-run the quantity-shift partition
// and tag every shard with the task index — byte-identical to the shards
// the coordinator's engine holds. Index plays no part, so one call serves
// every client of the task.
func (s ShardSpec) Partition() ([]*data.Dataset, error) {
	family, err := data.NewFamily(s.Dataset, s.Image)
	if err == nil {
		family, err = family.WithClassLimit(s.Classes)
	}
	if err != nil {
		return nil, fmt.Errorf("fl: shard spec family: %w", err)
	}
	train, _, err := family.Generate(s.Domain, s.TrainPerDomain, s.TestPerDomain, s.GenSeed)
	if err != nil {
		return nil, fmt.Errorf("fl: shard spec generate %s/%s: %w", s.Dataset, s.Domain, err)
	}
	return s.split(train)
}

// split partitions a task's generated training set among its learners and
// tags each shard with the task: the one derivation of shards from a domain,
// which the engine runs on the set it generated and Partition on the one it
// regenerates.
func (s ShardSpec) split(train *data.Dataset) ([]*data.Dataset, error) {
	shards, err := data.PartitionQuantityShift(train, s.Learners, s.Alpha, rand.New(rand.NewSource(s.PartSeed)))
	if err != nil {
		return nil, fmt.Errorf("fl: partitioning task %d: %w", s.Task, err)
	}
	for _, sh := range shards {
		sh.SetTask(s.Task)
	}
	return shards, nil
}

// shardOf returns the spec's slot of part, a partition its Partition built,
// and an error — never a panic — when Index lies outside it.
func (s ShardSpec) shardOf(part []*data.Dataset) (*data.Dataset, error) {
	if s.Index < 0 || s.Index >= len(part) {
		return nil, fmt.Errorf("fl: shard index %d outside partition of %d", s.Index, len(part))
	}
	return part[s.Index], nil
}

// Materialize regenerates the one shard the spec describes:
// Partition()[Index].
func (s ShardSpec) Materialize() (*data.Dataset, error) {
	part, err := s.Partition()
	if err != nil {
		return nil, err
	}
	return s.shardOf(part)
}

// JobSpec is the wire form of one client's job: identity, group, round,
// local-SGD hyperparameters, the RNG seed, and the shard coordinates to
// derive its data from — everything a remote worker needs, with no tensors
// and no datasets attached.
type JobSpec struct {
	ClientID   int
	Task       int
	ClientTask int
	Group      Group
	Round      int

	Epochs    int
	BatchSize int
	LR        float64
	// RngSeed seeds the client's local-training randomness
	// (ClientSeed of the run seed).
	RngSeed int64

	// Shards lists the data shards merged, in order, into the client's
	// local dataset: one for Old/New clients, two (previous then current
	// task) for In-between clients.
	Shards []ShardSpec
}

// Partitions builds clients' jobs from their specs: the one derivation of a
// client's local training set, shared by the engine and networked workers.
// It keeps each task's partition, keyed by the task's ShardSpec with Index
// zeroed: a task's shards are immutable, and one generation of the domain
// serves every client of the task, where materializing each shard would
// regenerate the domain once per client. The zero value is ready to use; it
// is not safe for concurrent use.
type Partitions struct {
	byTask map[ShardSpec][]*data.Dataset
}

// put records part as the partition s's task was split into.
func (p *Partitions) put(s ShardSpec, part []*data.Dataset) {
	if p.byTask == nil {
		p.byTask = make(map[ShardSpec][]*data.Dataset)
	}
	s.Index = 0
	p.byTask[s] = part
}

// Job builds the job spec describes: each shard is taken from its task's
// partition — regenerated through ShardSpec.Partition the first time any
// job names the task — and the shards are merged in order into the client's
// local training set (In-between clients: previous task, then current;
// Algorithm 1 line 17), which also weights the job.
func (p *Partitions) Job(spec JobSpec) (Job, error) {
	if len(spec.Shards) == 0 {
		return Job{}, fmt.Errorf("fl: job spec for client %d carries no shards", spec.ClientID)
	}
	shards := make([]*data.Dataset, len(spec.Shards))
	for i, s := range spec.Shards {
		key := s
		key.Index = 0
		part, ok := p.byTask[key]
		if !ok {
			var err error
			if part, err = s.Partition(); err != nil {
				return Job{}, err
			}
			p.put(key, part)
		}
		sh, err := s.shardOf(part)
		if err != nil {
			return Job{}, err
		}
		shards[i] = sh
	}
	ds := shards[0]
	if len(shards) > 1 {
		ds = data.Merge(fmt.Sprintf("client%d/both", spec.ClientID), shards...)
	}
	return Job{Ctx: spec.NewLocalContext(ds), Spec: spec, Weight: float64(ds.Len())}, nil
}

// NewLocalContext assembles the LocalContext for this spec over an already
// materialized dataset (see Partitions.Job).
func (j JobSpec) NewLocalContext(ds *data.Dataset) *LocalContext {
	return &LocalContext{
		ClientID:   j.ClientID,
		Task:       j.Task,
		ClientTask: j.ClientTask,
		Group:      j.Group,
		Data:       ds,
		Epochs:     j.Epochs,
		BatchSize:  j.BatchSize,
		LR:         j.LR,
		Rng:        rand.New(rand.NewSource(j.RngSeed)),
	}
}

// LocalRunner trains each job on an isolated replica of Alg across an
// in-process worker pool. It is the engine's default runner and also the
// execution core of networked federation workers (a fedworker handling a
// multi-job broadcast runs its slice of the round through the same pool).
//
// Replicas are pooled. A job takes an idle replica and copies Alg's current
// Global() parameters and buffers into it in place; it calls Spawn only when
// no replica is idle. Algorithm's contract (LocalTrain writes only Global();
// everything else is fixed at construction or shared with the parent) makes
// that copy a complete re-spawn. The job's Result hands over the replica's
// own tensors, and its Release puts the replica back in the pool.
type LocalRunner struct {
	// Alg is the parent algorithm replicas are spawned from.
	Alg Algorithm
	// Workers caps concurrent jobs; 0 means runtime.NumCPU(), 1 trains one
	// job at a time. Results are identical at every worker count.
	Workers int

	// slots are the idle worker slots, one per training goroutine that has
	// ever run: a goroutine borrows one for the jobs it executes and lends
	// its two arenas to each through LocalContext, so the buffers a step
	// needs, and the gradients and velocities a job needs, are allocated
	// once per worker slot, not once per step, client or round. replicas
	// are the released replicas, so the model's weights are copied once
	// per replica, not once per job. Keep the runner to keep both.
	mu       sync.Mutex
	slots    []*slot
	replicas []*replica
}

// replica is one Spawn of Alg that the runner keeps, with its Global()'s
// parameters and the result dict naming its parameter and buffer tensors,
// both built once: the tensors stay the replica's own for its whole life.
type replica struct {
	alg    Algorithm
	params []nn.Param
	dict   map[string]*tensor.Tensor
}

// takeReplica returns an idle replica brought to the global state given as
// params and buffers (Alg.Global()'s), or a cold Spawn when none is idle.
func (lr *LocalRunner) takeReplica(params []nn.Param, buffers []nn.Buffer) (*replica, error) {
	lr.mu.Lock()
	if n := len(lr.replicas); n > 0 {
		rep := lr.replicas[n-1]
		lr.replicas = lr.replicas[:n-1]
		lr.mu.Unlock()
		return rep, rep.sync(params, buffers)
	}
	lr.mu.Unlock()
	alg, err := lr.Alg.Spawn()
	if err != nil {
		return nil, err
	}
	g := alg.Global()
	rep := &replica{alg: alg, params: g.Params(), dict: make(map[string]*tensor.Tensor)}
	for _, p := range rep.params {
		rep.dict[p.Name] = p.Value.T
	}
	for _, b := range g.Buffers() {
		rep.dict[b.Name] = b.T
	}
	return rep, nil
}

// putReplica returns a released replica to the pool.
func (lr *LocalRunner) putReplica(rep *replica) {
	if poison.On() {
		// A result dict read after its Release then reads NaN instead of
		// the weights the next job's copy or training left there.
		//fedvet:ignore maporder every tensor gets the same fill, in any order
		for _, t := range rep.dict {
			poison.Tensor(t)
		}
	}
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.replicas = append(lr.replicas, rep)
}

// sync copies the global parameters and buffers into the replica's own
// tensors, pairing them by name and shape, and drops every parameter's
// Grad. It checks the whole layout before it copies anything, so a replica
// it refuses is left as it was. The Grads must go, not be zeroed: they were
// drawn from the job arena of whichever slot trained the replica last,
// which has been reset and may have handed those buffers to another job.
func (r *replica) sync(params []nn.Param, buffers []nn.Buffer) error {
	for _, p := range params {
		if err := r.check(p.Name, p.Value.T); err != nil {
			return err
		}
	}
	for _, b := range buffers {
		if err := r.check(b.Name, b.T); err != nil {
			return err
		}
	}
	if n := len(params) + len(buffers); n != len(r.dict) {
		for _, name := range slices.Sorted(maps.Keys(r.dict)) {
			if !slices.ContainsFunc(params, func(p nn.Param) bool { return p.Name == name }) &&
				!slices.ContainsFunc(buffers, func(b nn.Buffer) bool { return b.Name == name }) {
				return fmt.Errorf("fl: pooled replica holds %q, which the global model does not", name)
			}
		}
		return fmt.Errorf("fl: pooled replica holds %d tensors, the global model names %d", len(r.dict), n)
	}
	for _, p := range params {
		r.dict[p.Name].CopyFrom(p.Value.T)
	}
	for _, b := range buffers {
		r.dict[b.Name].CopyFrom(b.T)
	}
	for _, p := range r.params {
		p.Value.Grad = nil
	}
	return nil
}

// check refuses a global tensor the replica has no tensor of the same name
// and shape for.
func (r *replica) check(name string, src *tensor.Tensor) error {
	dst, ok := r.dict[name]
	if !ok {
		return fmt.Errorf("fl: pooled replica has no %q to copy the global model's into", name)
	}
	if !dst.SameShape(src) {
		return fmt.Errorf("fl: pooled replica's %q has shape %v, the global model's %v", name, dst.Shape(), src.Shape())
	}
	return nil
}

// slot is what one training goroutine owns: the step arena, reset by SGD
// after every update, and the job arena, reset when the slot starts its next
// job — so the Grads of the job's replica stay readable until then, or until
// the next job to take that replica drops them.
type slot struct{ step, job tensor.Arena }

// borrowSlot takes an idle slot, or a new one when every slot is out.
func (lr *LocalRunner) borrowSlot() *slot {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if n := len(lr.slots); n > 0 {
		s := lr.slots[n-1]
		lr.slots = lr.slots[:n-1]
		return s
	}
	return new(slot)
}

func (lr *LocalRunner) returnSlot(s *slot) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.slots = append(lr.slots, s)
}

// RunEach implements EachRunner: done(i, result of jobs[i]) fires once per
// job as it completes — in completion order, not job order — so callers
// can forward per-job acknowledgements (the transport executor streams
// each finished job back to the coordinator this way, which is what makes
// survivor re-queue placement bookkeeping possible). done calls are
// serialized under an internal lock; an error returned from done — or the
// first training error — cancels the remaining jobs.
func (lr *LocalRunner) RunEach(jobs []Job, done func(i int, res Result) error) error {
	if lr.Alg == nil {
		return fmt.Errorf("fl: local runner has no algorithm")
	}
	workers := lr.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// The parent's Global() is only read while the round runs, so its lists
	// serve every job's copy.
	global := lr.Alg.Global()
	params, buffers := global.Params(), global.Buffers()
	var doneMu sync.Mutex
	runJob := func(i int, s *slot) error {
		job := jobs[i]
		if job.Ctx == nil {
			return fmt.Errorf("fl: job %d has no local context", i)
		}
		// The slot's previous job is done with its Grads and velocities.
		s.job.Reset()
		job.Ctx.Arena, job.Ctx.JobArena = &s.step, &s.job
		rep, err := lr.takeReplica(params, buffers)
		if err != nil {
			return fmt.Errorf("fl: taking a replica for client %d: %w", job.Ctx.ClientID, err)
		}
		up, err := rep.alg.LocalTrain(job.Ctx)
		if err != nil {
			return fmt.Errorf("fl: client %d local training: %w", job.Ctx.ClientID, err)
		}
		// The replica's own tensors are handed over instead of StateDict
		// clones: nothing done feeds them to (the fold, an upload encoder)
		// writes them, and no job takes the replica before it is released.
		res := Result{Dict: rep.dict, Upload: up, Release: func() { lr.putReplica(rep) }}
		doneMu.Lock()
		defer doneMu.Unlock()
		return done(i, res)
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := lr.borrowSlot()
			defer lr.returnSlot(s)
			for i := range next {
				// Once any client fails the round is lost; drain the
				// remaining jobs without paying for their local epochs.
				if failed.Load() {
					continue
				}
				if err := runJob(i, s); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

var _ EachRunner = (*LocalRunner)(nil)
