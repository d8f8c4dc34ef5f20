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
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/telemetry"
	"reffil/internal/tensor"
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
func runLocal(t *testing.T, method string, family *data.Family, domains []string) [][]float64 {
	t.Helper()
	alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngine(crossRunnerConfig(), alg)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	return mat.A
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
	// global, when non-nil, receives a copy of the coordinator's final
	// global state dict.
	global *map[string]*tensor.Tensor
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
	if opt.global != nil {
		*opt.global = nn.StateDict(alg.Global())
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
			local := localReference(t, method, family, domains)
			remote, stats := runTCPWith(t, method, family, domains, tcpRun{workers: 2})
			// Only the lower triangle is recorded (task i is evaluated on
			// domains 0..i); the rest stays NaN.
			requireSameMatrix(t, "TCP", local, remote)
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
// count (experiments.ScaleSmoke keeps 6 of PACS's 7).
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
	for _, family := range []*data.Family{full, limited} {
		train, _, err := family.Generate(family.Domains[task], 30, 10, fl.TaskSeed(seed, task))
		if err != nil {
			t.Fatal(err)
		}
		shards, err := data.PartitionQuantityShift(train, learners, 0.5,
			rand.New(rand.NewSource(fl.PartitionSeed(seed, task))))
		if err != nil {
			t.Fatal(err)
		}
		for idx, want := range shards {
			want.SetTask(task)
			got, err := fl.ShardSpec{
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
			}.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%d classes, shard %d: materialized %d examples, engine holds %d", family.Classes, idx, got.Len(), want.Len())
			}
			for i := range want.Examples {
				w, g := want.Examples[i], got.Examples[i]
				if w.Y != g.Y || w.Task != g.Task {
					t.Fatalf("%d classes, shard %d example %d: label/task mismatch", family.Classes, idx, i)
				}
				if !w.X.AllClose(g.X, 0) {
					t.Fatalf("%d classes, shard %d example %d: pixel data diverged", family.Classes, idx, i)
				}
			}
		}
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
	remote, stats := runTCPWith(t, "RefFiL", family, domains, tcpRun{workers: 2})
	requireSameMatrix(t, "TCP(class-limited)", local, remote)
	requireAllPatchUploads(t, stats)
}

// TestCodecDeterminism runs every method of the paper's tables the way the
// benchmark configures its Pipeline — the "delta" codec named through
// UseCodec — over four workers, so with three jobs a round one slot idles in
// every round and the broadcasts mix full, delta and idle frames. Each
// method's accuracy matrix must equal the in-process reference exactly (==),
// every upload must be a patch, and no slot may need more than the one full
// snapshot its fresh connection costs.
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
			local := localReference(t, method, family, domains)
			delta, stats := runTCPWith(t, method, family, domains, tcpRun{workers: workers, codec: "delta"})
			requireSameMatrix(t, "TCP(delta)", local, delta)
			requireAllPatchUploads(t, stats)
			if stats.IdleFrames == 0 {
				t.Fatalf("four workers for three jobs sent no idle frames: %+v", stats)
			}
			if stats.Fallbacks > workers {
				t.Fatalf("%d full-snapshot fallbacks over %d fresh slots: %+v", stats.Fallbacks, workers, stats)
			}
		})
	}
}

// TestDeltaStatsAreDeterministic runs one federation twice — four
// workers for three jobs a round, so one slot idles every round — and
// requires the two runs' Stats to be equal, byte counts included: the
// counts are whole frames of round traffic, none of which can race a
// round's last ack.
func TestDeltaStatsAreDeterministic(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	_, first := runTCPWith(t, "FedLwF", family, domains, tcpRun{workers: 4})
	_, second := runTCPWith(t, "FedLwF", family, domains, tcpRun{workers: 4})
	if first != second {
		t.Fatalf("two runs of one federation report different Stats:\n%+v\n%+v", first, second)
	}
	if first.IdleFrames == 0 || first.BroadcastBytes == 0 || first.UploadBytes == 0 {
		t.Fatalf("degenerate run: %+v", first)
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
