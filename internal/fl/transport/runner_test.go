// Cross-runner determinism coverage: the acceptance gate for the pluggable
// round runner. For every method the in-process LocalRunner and a real TCP
// fan-out over 127.0.0.1 must produce identical accuracy matrices for the
// same (dataset, domain, seed, workers) — the networked path runs the same
// engine, derives the same shards from specs, and trains the same replicas.
//
// Lives in an external test package so it can drive the real algorithms
// (core/baselines import fl; importing them from package transport itself
// would blur the layering even though no cycle exists).
package transport_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/fl/transport"
	"reffil/internal/model"
	"reffil/internal/telemetry"
)

// crossRunnerConfig is deliberately tiny: enough tasks/rounds/clients to
// exercise selection, the In-between shard merge, wire state for every
// method, and multi-job broadcasts (SelectPerRound > worker count), small
// enough for -race.
func crossRunnerConfig() fl.Config {
	return fl.Config{
		Rounds:            2,
		Epochs:            1,
		BatchSize:         8,
		LR:                0.05,
		InitialClients:    4,
		SelectPerRound:    3,
		ClientsPerTaskInc: 1,
		TransferFrac:      0.8,
		Alpha:             0.5,
		TrainPerDomain:    24,
		TestPerDomain:     12,
		EvalBatch:         12,
		Seed:              2025,
		Workers:           2,
	}
}

// runLocal executes the full task sequence on the in-process runner.
func runLocal(t *testing.T, method string, family *data.Family, domains []string) localRun {
	t.Helper()
	alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	return localRun{A: mat.A, final: fltest.FinalOf(t, alg)}
}

// tcpRun configures one loopback federation for runTCPWith.
type tcpRun struct {
	// workers is the number of goroutine "machines".
	workers int
	// codec, when set, is named through Pipeline.UseCodec before the run,
	// as the benchmark configures its Pipeline.
	codec string
	// ackDelay, when positive, makes every worker sleep this long before
	// it sends each ack: slow workers, built from the test side.
	ackDelay time.Duration
	// sink and onRound, when non-nil, are attached wherever the fedserver
	// wires them: coordinator, pipeline and engine; the pipeline's OnRound.
	sink    *telemetry.Sink
	onRound func(transport.RoundStats)
	// final, when non-nil, receives the coordinator's final global state
	// dict and wire state.
	final *fltest.Final
}

// runTCPWith executes the same sequence as runLocal over loopback TCP:
// engine → transport.Pipeline → workers, each speaking only
// frames over TCP through an Executor around its own independently constructed
// algorithm instance. It returns the matrix and the Pipeline's cumulative
// wire accounting, so tests can assert which upload/broadcast paths a run
// actually exercised.
func runTCPWith(t *testing.T, method string, family *data.Family, domains []string, opt tcpRun) ([][]float64, transport.Stats) {
	t.Helper()
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetTelemetry(opt.sink)

	var wg sync.WaitGroup
	workerErr := make([]error, opt.workers)
	for id := 0; id < opt.workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
			if err != nil {
				workerErr[id] = err
				return
			}
			ex, err := transport.NewExecutor(alg, 1)
			if err != nil {
				workerErr[id] = err
				return
			}
			w, err := transport.Dial(coord.Addr(), id)
			if err != nil {
				workerErr[id] = err
				return
			}
			defer w.Close()
			workerErr[id] = w.Serve(func(b transport.Broadcast, emit func(transport.JobResult) error) error {
				return ex.Handle(b, func(jr transport.JobResult) error {
					time.Sleep(opt.ackDelay)
					return emit(jr)
				})
			})
		}(id)
	}
	if err := coord.Accept(opt.workers, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := transport.NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	pl.Telemetry, pl.OnRound = opt.sink, opt.onRound
	if opt.codec != "" {
		if err := pl.UseCodec(opt.codec); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, pl)
	if err != nil {
		t.Fatal(err)
	}
	eng.Telemetry = opt.sink
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	if opt.final != nil {
		*opt.final = fltest.FinalOf(t, alg)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for id, err := range workerErr {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	return mat.A, pl.Stats()
}

// TestCrossRunnerDeterminism asserts exact (==) equality of the accuracy
// matrices from the local and loopback-TCP runners for all eight methods of
// the paper's tables. The TCP run exercises both wire directions: per-key
// diffs against each worker's acked base version on broadcast, per-job patch
// uploads against the round's broadcast base on the way back, and wire-state
// payload sent only when its bytes change. The delta path changes how bytes
// move, never what arrives. Each run must also prove it exercised the
// upload-patch path — every ack a patch, no silent fallback to full-state
// uploads.
func TestCrossRunnerDeterminism(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := experiments.MethodNames
	if testing.Short() {
		methods = []string{"RefFiL", "FedLwF"}
	}
	for _, method := range methods {
		method := method
		t.Run(short(method), func(t *testing.T) {
			local := localRunOf(t, method, family, domains)
			var final fltest.Final
			remote, stats := runTCPWith(t, method, family, domains, tcpRun{workers: 2, final: &final})
			// Only the lower triangle is recorded (task i is evaluated on
			// domains 0..i); the rest stays NaN.
			requireSameMatrix(t, "TCP", local.A, remote)
			fltest.RequireSameFinal(t, "TCP", local.final, final)
			requireAllPatchUploads(t, stats)
		})
	}
}

// short is a method's subtest name: its table name in lowercase, without
// the "Fed" prefix (FedLwF → lwf, FedL2P+pool → l2p+pool).
func short(method string) string {
	return strings.ToLower(strings.TrimPrefix(method, "Fed"))
}

// requireSameMatrix asserts exact (==) equality on the recorded lower
// triangle of two accuracy matrices.
func requireSameMatrix(t *testing.T, label string, want, got [][]float64) {
	t.Helper()
	for i := range want {
		for j := 0; j <= i; j++ {
			if want[i][j] != got[i][j] {
				t.Fatalf("accuracy matrix diverged at [%d][%d]: reference %v vs %s %v",
					i, j, want[i][j], label, got[i][j])
			}
		}
	}
}

// TestShardSpecMaterializeMatchesPartition pins the data-derivation
// contract: a worker materializing a ShardSpec must recover exactly the
// shard the engine partitioned, for every slot of the partition — also
// when the run's family is class-limited below the dataset's own class
// count (experiments.ScaleSmoke keeps 6 of PACS's 7). An In-between
// client's two-shard job, built through a cold fl.Partitions, must equal
// the merge of the engine's task-0 and task-1 shards.
func TestShardSpecMaterializeMatchesPartition(t *testing.T) {
	const (
		seed     = int64(41)
		task     = 1
		learners = 3
	)
	full, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := experiments.ScaleSmoke.Family("pacs")
	if err != nil {
		t.Fatal(err)
	}
	if limited.Classes >= full.Classes {
		t.Fatalf("smoke family keeps %d of %d classes — not class-limited", limited.Classes, full.Classes)
	}
	requireSame := func(what string, want, got *data.Dataset) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%s: materialized %d examples, engine holds %d", what, got.Len(), want.Len())
		}
		for i := range want.Examples {
			w, g := want.Examples[i], got.Examples[i]
			if w.Y != g.Y || w.Task != g.Task {
				t.Fatalf("%s example %d: label/task mismatch", what, i)
			}
			if !w.X.EqualBits(g.X) {
				t.Fatalf("%s example %d: pixel data diverged", what, i)
			}
		}
	}
	for _, family := range []*data.Family{full, limited} {
		// engineShards splits a task's domain as the engine does: generate,
		// partition, tag.
		engineShards := func(task int) []*data.Dataset {
			train, _, err := family.Generate(family.Domains[task], 30, 10, fl.TaskSeed(seed, task))
			if err != nil {
				t.Fatal(err)
			}
			shards, err := data.PartitionQuantityShift(train, learners, 0.5,
				rand.New(rand.NewSource(fl.PartitionSeed(seed, task))))
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shards {
				sh.SetTask(task)
			}
			return shards
		}
		spec := func(task, idx int) fl.ShardSpec {
			return fl.ShardSpec{
				Dataset:        family.Name,
				Image:          family.Size,
				Classes:        family.Classes,
				Domain:         family.Domains[task],
				Task:           task,
				TrainPerDomain: 30,
				TestPerDomain:  10,
				GenSeed:        fl.TaskSeed(seed, task),
				Learners:       learners,
				Index:          idx,
				Alpha:          0.5,
				PartSeed:       fl.PartitionSeed(seed, task),
			}
		}
		shards := engineShards(task)
		for idx, want := range shards {
			got, err := spec(task, idx).Materialize()
			if err != nil {
				t.Fatal(err)
			}
			requireSame(fmt.Sprintf("%d classes, shard %d", family.Classes, idx), want, got)
		}

		var parts fl.Partitions
		job, err := parts.Job(fl.JobSpec{ClientID: 1, Group: fl.GroupInBetween,
			Shards: []fl.ShardSpec{spec(0, 0), spec(task, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		want := data.Merge("", engineShards(0)[0], shards[1])
		requireSame(fmt.Sprintf("%d classes, In-between job", family.Classes), want, job.Ctx.Data)
	}
}

// TestClassLimitedFamilyOverTCP runs a class-limited family (the smoke
// preset's) end to end: workers rebuild their shards from ShardSpecs, so
// the spec must carry the class limit for the TCP matrix to equal the
// in-process one.
func TestClassLimitedFamilyOverTCP(t *testing.T) {
	family, err := experiments.ScaleSmoke.Family("pacs")
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	local := runLocal(t, "RefFiL", family, domains)
	var final fltest.Final
	remote, stats := runTCPWith(t, "RefFiL", family, domains, tcpRun{workers: 2, final: &final})
	requireSameMatrix(t, "TCP(class-limited)", local.A, remote)
	fltest.RequireSameFinal(t, "TCP(class-limited)", local.final, final)
	requireAllPatchUploads(t, stats)
}

// TestCodecDeterminism runs every method of the paper's tables the way the
// benchmark configures its Pipeline — the "delta" codec named through
// UseCodec — over four workers, so with three jobs a round one slot is
// dealt no job in any round. Each method's accuracy matrix must equal the
// in-process reference exactly (==), every upload must be a patch, each of
// the three working slots must take exactly the one full snapshot its fresh
// connection costs, and the slot with no job must receive no frame: its
// first would be a fourth full snapshot, and with nothing re-queued every
// frame carries state.
func TestCodecDeterminism(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := experiments.MethodNames
	if testing.Short() {
		methods = []string{"RefFiL", "FedLwF"}
	}
	const workers = 4
	for _, method := range methods {
		method := method
		t.Run(short(method), func(t *testing.T) {
			local := localRunOf(t, method, family, domains)
			var final fltest.Final
			delta, stats := runTCPWith(t, method, family, domains, tcpRun{workers: workers, codec: "delta", final: &final})
			requireSameMatrix(t, "TCP(delta)", local.A, delta)
			fltest.RequireSameFinal(t, "TCP(delta)", local.final, final)
			requireAllPatchUploads(t, stats)
			if stats.Fallbacks != workers-1 || stats.IdleFrames != 0 {
				t.Fatalf("%d full-snapshot fallbacks and %d frames without state over %d fresh slots, one with no job: %+v",
					stats.Fallbacks, stats.IdleFrames, workers, stats)
			}
		})
	}
}

// TestDeltaStatsAreDeterministic runs one federation twice — four
// workers for three jobs a round, so one slot is sent nothing — and
// requires the two runs' Stats to be equal, byte counts included: the
// counts are whole frames of round traffic, none of which can race a
// round's last ack. The values are pinned too, so a change to which frames
// the accounting counts fails here, and the run's OnRound records must sum
// to its Stats field by field.
func TestDeltaStatsAreDeterministic(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	rounds := make(chan transport.RoundStats, 64)
	_, first := runTCPWith(t, "FedLwF", family, domains, tcpRun{workers: 4, onRound: func(rs transport.RoundStats) { rounds <- rs }})
	_, second := runTCPWith(t, "FedLwF", family, domains, tcpRun{workers: 4})
	if first != second {
		t.Fatalf("two runs of one federation report different Stats:\n%+v\n%+v", first, second)
	}
	want := transport.Stats{
		Rounds: 4, BroadcastBytes: 3105591, UploadBytes: 2212550,
		FullFrames: 3, DeltaFrames: 9, IdleFrames: 0, Fallbacks: 3,
		PatchUploads: 12, UploadFallbacks: 0,
	}
	if first != want {
		t.Fatalf("run Stats:\n%+v\nwant\n%+v", first, want)
	}
	var records []transport.RoundStats
	for range first.Rounds {
		records = append(records, <-rounds)
	}
	if sum := transport.SumRounds(records); sum != first {
		t.Fatalf("OnRound records sum to\n%+v\nStats reads\n%+v", sum, first)
	}
}

// requireAllPatchUploads asserts a run delta-encoded every upload: the
// worker always holds the round's base by the time it trains, so the
// full-state fallback must never fire.
func requireAllPatchUploads(t *testing.T, stats transport.Stats) {
	t.Helper()
	if stats.PatchUploads == 0 {
		t.Fatal("run produced no patch uploads — the base-relative upload path never engaged")
	}
	if stats.UploadFallbacks != 0 {
		t.Fatalf("run uploads: %+v, want patches only", stats)
	}
}
