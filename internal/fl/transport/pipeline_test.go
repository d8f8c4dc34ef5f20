// Pipelined-round acceptance gates: AsyncRunner over the Pipeline must stay
// bit-identical to the synchronous engine at staleness 0 for every method,
// real in-flight lag must admit exactly what simulated lag admits, and the
// re-queue-on-death machinery must survive the hard case pipelining
// creates — a worker dying while it holds jobs from two live rounds.
package transport_test

import (
	"encoding/gob"
	"net"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/model"
)

// runTCPPipelined executes the full task sequence over loopback TCP with
// rounds pipelined: engine → AsyncRunner(staleness) → Pipeline →
// gob-over-TCP workers. delay is the AsyncRunner's straggler policy (nil =
// no lag).
func runTCPPipelined(t *testing.T, method string, family *data.Family, domains []string, staleness int, delay func(round int, spec fl.JobSpec) int) ([][]float64, transport.Stats) {
	t.Helper()
	return runTCPWith(t, method, family, domains, tcpRun{workers: 2, codec: "delta", wrap: asyncOver(staleness, delay)})
}

// TestPipelinedStalenessZeroMatchesSync is the pipelining acceptance gate:
// engine → AsyncRunner(S=0) → Pipeline over loopback TCP must reproduce
// the synchronous in-process LocalRunner's accuracy matrix exactly (==)
// for all six -method algorithms. Dispatch and collection are decoupled
// and the coordinator's mirror advances per slot at send time, but with a
// zero window every result is awaited in its own round in job order — the
// aggregation stream, and therefore every bit of the model, must be
// unchanged. Run under the delta codec so the per-slot send-time mirror
// advance is load-bearing (a wrong base would corrupt a frame or a patch,
// not just a counter).
func TestPipelinedStalenessZeroMatchesSync(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := experiments.MethodFlags()
	if testing.Short() {
		methods = []string{"reffil", "lwf"}
	}
	for _, method := range methods {
		method := method
		t.Run(method, func(t *testing.T) {
			local := localReference(t, method, family, domains)
			piped, stats := runTCPPipelined(t, method, family, domains, 0, nil)
			requireSameMatrix(t, "pipelined(S=0)", local, piped)
			requireAllPatchUploads(t, stats)
		})
	}
}

// TestPipelinedStalenessOneMatchesSimulatedLag pins the other half of the
// equivalence: with a staleness window and deterministic stragglers, the
// pipelined path — lagging results left in flight on the wire, awaited at
// admission — must admit exactly what the AsyncRunner admits when it
// simulates the same delays in-process (every job trained inside its own
// round on a LocalRunner, lagging results merely withheld), so "real
// in-flight lag ≡ simulated lag": the two matrices are bit-identical even
// though their wall-clock schedules are completely different.
func TestPipelinedStalenessOneMatchesSimulatedLag(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	delay := fl.StragglerDelay(crossRunnerConfig().Seed, 0.33, 1)
	// RunRound consults the policy serially, so a plain counter is safe.
	lagged := 0
	counting := func(round int, spec fl.JobSpec) int {
		d := delay(round, spec)
		if d > 0 {
			lagged++
		}
		return d
	}

	alg, err := experiments.NewMethodFromFlag("lwf", model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := crossRunnerConfig()
	simulated := &fl.AsyncRunner{
		Inner:     &fl.LocalRunner{Alg: alg, Workers: cfg.Workers},
		Staleness: 1,
		Delay:     counting,
	}
	eng, err := fl.NewEngineWithRunner(cfg, alg, simulated)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	if lagged == 0 {
		t.Fatal("straggler schedule lagged nothing — this degenerated to the S=0 test")
	}

	piped, _ := runTCPPipelined(t, "lwf", family, domains, 1, delay)
	requireSameMatrix(t, "pipelined(S=1)", want.A, piped)
}

// TestPipelinedWorkerDeathTwoLiveRounds is the fault-injection gate for
// the case only pipelining can produce: a worker dies while its send
// queue holds unfinished jobs from TWO live rounds (round r, whose
// results are in flight under a staleness window, and round r+1, already
// dispatched on top). The coordinator must re-queue both jobs on the
// survivor as Replay broadcasts carrying each origin round's retained
// state — round r's jobs must re-execute against round r's weights, not
// r+1's — and the completed run must be bit-identical to the same
// staleness schedule with no crash.
//
// Choreography: every result lags one round (S=1), so round r's results
// are never awaited before round r+1 dispatches. Worker slot 1 is a raw
// gob endpoint that acks nothing: it decodes the round (0,0) broadcast,
// keeps reading until the round (0,1) broadcast arrives — proof both
// batches are queued against its slot — and then severs the connection.
// (It must keep reading until the kill: a worker that stops mid-round
// would stall the coordinator's dispatch in the TCP buffers instead of
// dying cleanly.)
func TestPipelinedWorkerDeathTwoLiveRounds(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	lagAll := func(int, fl.JobSpec) int { return 1 }

	// Reference: the identical staleness schedule over the pipelined
	// transport with no crash. Re-queued jobs are deterministic re-executions
	// against the origin round's state, so the crashed run must match it.
	want, _ := runTCPPipelined(t, "reffil", family, domains, 1, lagAll)

	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	newAlg := func() fl.Algorithm {
		alg, err := experiments.NewMethodFromFlag("reffil", model.DefaultConfig(family.Classes), len(domains), 7)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}

	// Worker slot 0: the survivor. Dialed first so round-robin assignment
	// is deterministic (job 1 of each 3-job round lands on slot 1).
	surviveErr := make(chan error, 1)
	{
		ex, err := transport.NewExecutor(newAlg(), 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := transport.Dial(coord.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer w.Close()
			surviveErr <- w.Serve(ex.Handle)
		}()
		if err := coord.Accept(1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Worker slot 1: the killer — a raw gob endpoint, because a real
	// Executor cannot be mid-broadcast on two rounds at once (Serve is
	// sequential). It reads broadcasts without ever acking and dies the
	// moment it holds two.
	var killerRounds []int
	killerDone := make(chan struct{})
	{
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer close(killerDone)
			defer conn.Close()
			enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
			if err := enc.Encode(transport.Hello{Version: transport.ProtocolVersion, WorkerID: 1}); err != nil {
				return
			}
			var ack transport.HelloAck
			if err := dec.Decode(&ack); err != nil || ack.Error != "" {
				return
			}
			for len(killerRounds) < 2 {
				var b transport.Broadcast
				if err := dec.Decode(&b); err != nil {
					return
				}
				killerRounds = append(killerRounds, b.Round)
			}
		}()
		if err := coord.Accept(1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	alg := newAlg()
	pl, err := transport.NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.UseCodec("delta"); err != nil {
		t.Fatal(err)
	}
	runner := &fl.AsyncRunner{Inner: pl, Staleness: 1, Delay: lagAll}
	eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, runner)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatalf("run with injected dual-round crash failed instead of re-queueing: %v", err)
	}
	if got := coord.NumLive(); got != 1 {
		t.Fatalf("live workers after crash = %d, want 1", got)
	}
	stats := pl.Stats()
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	<-killerDone
	if len(killerRounds) != 2 || killerRounds[0] != 0 || killerRounds[1] != 1 {
		t.Fatalf("killer saw broadcasts for rounds %v before dying, want [0 1] — the crash did not strand two live rounds", killerRounds)
	}
	if err := <-surviveErr; err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	requireSameMatrix(t, "pipelined crash(two live rounds)", want, mat.A)
	if stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}
