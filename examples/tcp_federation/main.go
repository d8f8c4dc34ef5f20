// TCP federation: the full federated domain-incremental engine running
// over a real network transport. A coordinator listens on loopback; two
// worker processes (goroutines here, but each speaks only gob-over-TCP)
// execute the rounds' jobs, deriving their private shards from the job
// specs — no training data crosses the wire. The networked run uses the
// delta wire format (-codec delta in the CLIs), delta-encoded in both
// directions: per-key state diffs against each worker's base version on
// broadcast, per-job patches of the trained state against the round's
// base on upload, method wire state only when it changes, and per-round
// byte accounting printed as it runs. The same engine then runs
// in-process, and the two accuracy matrices are compared cell by cell: the
// delta-encoded networked path is not an approximation of the local one,
// it is the same computation.
//
// A second networked run then demonstrates bounded-staleness rounds: an
// fl.AsyncRunner with staleness window S=1 over the same transport, with
// one genuinely slow worker whose results report one round late at half
// FedAvg weight while the next round is already dispatched. That run's
// matrix is printed for comparison — it legitimately differs from the
// synchronous one, because lagging results change the aggregation set of
// each round (bit-identity is only guaranteed at S=0 or with no
// stragglers).
//
//	go run ./examples/tcp_federation
//
// -metrics ADDR serves the telemetry registry's Prometheus /metrics page
// for the duration of the demo (the CI smoke test scrapes it);
// -metrics-linger keeps the process alive that long after the runs finish
// so an external scraper can read the final counter values.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/metrics"
	"reffil/internal/model"
	"reffil/internal/telemetry"
)

const (
	numWorkers = 2
	methodFlag = "reffil"
	seed       = 2025
	algSeed    = 7
)

var (
	metricsAddr   = flag.String("metrics", "", "serve a Prometheus /metrics page on this address (empty disables)")
	metricsLinger = flag.Duration("metrics-linger", 0, "keep the process alive this long after the runs finish so /metrics can be scraped")

	sink *telemetry.Sink
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcp_federation:", err)
		os.Exit(1)
	}
}

func config() fl.Config {
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
		Seed:              seed,
	}
}

func newAlg(family *data.Family, tasks int) (fl.Algorithm, error) {
	return experiments.NewMethodFromFlag(methodFlag, model.DefaultConfig(family.Classes), tasks, algSeed)
}

func run() error {
	// Telemetry covers the synchronous networked run; the overlap pass
	// reruns the same mechanics, so one instrumented run is enough for the
	// CI metrics smoke test to reconcile against.
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		sink = telemetry.NewSink(reg, nil)
		bound, err := reg.Serve(*metricsAddr)
		if err != nil {
			return err
		}
		fmt.Printf("metrics listening on http://%s/metrics\n", bound)
	}

	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		return err
	}
	domains := family.Domains[:2]

	// Networked run: the engine schedules, the transport Pipeline fans out
	// delta-encoded broadcasts and accounts every byte.
	fed, err := startFederation(family, len(domains), nil)
	if err != nil {
		return err
	}
	defer fed.coord.Close()
	fed.coord.SetTelemetry(sink)
	fmt.Printf("coordinator listening on %s, %d workers connected\n", fed.coord.Addr(), numWorkers)
	fed.pipe.Telemetry = sink
	fed.pipe.OnRound = func(rs transport.RoundStats) {
		fmt.Printf("  [wire] task %d round %d: broadcast %d B, uploads %d B (%d patch/%d full), frames %d full/%d delta/%d idle\n",
			rs.Task, rs.Round, rs.BroadcastBytes, rs.UploadBytes, rs.PatchUploads, rs.StateUploads,
			rs.FullFrames, rs.DeltaFrames, rs.IdleFrames)
	}
	eng, err := fl.NewEngineWithRunner(config(), fed.alg, fed.pipe)
	if err != nil {
		return err
	}
	eng.Progress = func(msg string) { fmt.Println("  " + msg) }
	eng.Telemetry = sink
	tcpMat, err := eng.Run(family, domains)
	if err != nil {
		return err
	}
	fed.stop()

	// Reference run: identical engine, in-process worker pool.
	ref, err := newAlg(family, len(domains))
	if err != nil {
		return err
	}
	localEng, err := fl.NewEngine(config(), ref)
	if err != nil {
		return err
	}
	localMat, err := localEng.Run(family, domains)
	if err != nil {
		return err
	}

	st := fed.pipe.Stats()
	fmt.Printf("wire totals (codec delta): broadcast %d B, uploads %d B (%d patch/%d full) over %d rounds, %d full-snapshot fallbacks\n",
		st.BroadcastBytes, st.UploadBytes, st.PatchUploads, st.StateUploads, st.Rounds, st.Fallbacks)
	printMatrix("over TCP", tcpMat)
	printMatrix("in-process", localMat)
	for t := range tcpMat.A {
		for i := 0; i <= t; i++ {
			if math.Float64bits(tcpMat.A[t][i]) != math.Float64bits(localMat.A[t][i]) {
				return fmt.Errorf("matrices diverged at [%d][%d]: TCP %v vs local %v",
					t, i, tcpMat.A[t][i], localMat.A[t][i])
			}
		}
	}
	fmt.Println("delta-encoded networked run and in-process run are bit-identical")

	if err := runOverlap(family, domains); err != nil {
		return err
	}
	if *metricsLinger > 0 {
		fmt.Printf("lingering %v for /metrics scrapes\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
	return nil
}

// federation is one loopback deployment: a coordinator, the workers that
// dialed it, and the delta-codec Pipeline over the coordinator-side
// algorithm instance.
type federation struct {
	coord *transport.Coordinator
	alg   fl.Algorithm
	pipe  *transport.Pipeline
	wg    sync.WaitGroup
}

// startFederation listens, starts numWorkers workers and waits for them.
// straggle, when non-nil, maps a worker id to its pre-ack hook.
func startFederation(family *data.Family, tasks int, straggle map[int]func(fl.JobSpec)) (*federation, error) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &federation{coord: coord}
	for id := 0; id < numWorkers; id++ {
		f.wg.Add(1)
		go func(id int) {
			defer f.wg.Done()
			if err := worker(coord.Addr(), id, family, tasks, straggle[id]); err != nil {
				fmt.Fprintf(os.Stderr, "worker %d: %v\n", id, err)
			}
		}(id)
	}
	if err = coord.Accept(numWorkers, 10*time.Second); err == nil {
		f.alg, err = newAlg(family, tasks)
	}
	if err == nil {
		f.pipe, err = transport.NewPipeline(coord, f.alg)
	}
	if err == nil {
		err = f.pipe.UseCodec("delta")
	}
	if err != nil {
		_ = coord.Close()
		return nil, err
	}
	return f, nil
}

// stop says goodbye to the workers and waits for them. Best-effort: a dead
// worker connection must not discard the completed run.
func (f *federation) stop() {
	_ = f.pipe.Close()
	if err := f.coord.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
	}
	f.wg.Wait()
}

// runOverlap reruns the federation with a staleness window S=1 and one
// genuinely slow worker (a real wall-clock sleep before each of its acks).
// The coordinator's Delay policy marks every result as lagging one round —
// they stay in flight on the wire while the next round dispatches, and are
// awaited only at admission — and the per-round overlap ratio shows how
// much collection time ran concurrently with later rounds.
func runOverlap(family *data.Family, domains []string) error {
	fed, err := startFederation(family, len(domains), map[int]func(fl.JobSpec){
		1: func(fl.JobSpec) { time.Sleep(60 * time.Millisecond) },
	})
	if err != nil {
		return err
	}
	defer fed.coord.Close()
	fed.pipe.OnRound = func(rs transport.RoundStats) {
		fmt.Printf("  [pipe] task %d round %d: dispatch %.1fms, last ack %.1fms, overlap %.0f%%\n",
			rs.Task, rs.Round, float64(rs.DispatchNanos)/1e6, float64(rs.LastAckNanos)/1e6,
			rs.OverlapRatio()*100)
	}
	async := &fl.AsyncRunner{
		Inner:     fed.pipe,
		Staleness: 1,
		// Lag every result one round so none is awaited before its
		// computation had a full extra round of wall clock to finish in the
		// background.
		Delay: func(round int, spec fl.JobSpec) int { return 1 },
	}
	eng, err := fl.NewEngineWithRunner(config(), fed.alg, async)
	if err != nil {
		return err
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		return err
	}
	fed.stop()
	fmt.Printf("\nbounded-staleness rerun (S=1, a slow worker, %d results dropped):\n", async.Dropped())
	printMatrix("S=1 over TCP", mat)
	fmt.Println("lagging results report one round late at half weight, so collection overlapped the next dispatch instead of blocking it;")
	fmt.Println("the matrix may legitimately differ from the synchronous run: they shift each round's aggregation set")
	return nil
}

func printMatrix(label string, mat *metrics.Matrix) {
	fmt.Printf("accuracy matrix %s:\n", label)
	mat.FprintTriangle(os.Stdout)
}

// worker is one federation participant machine: dial, construct the same
// method with the same construction seed, and serve job broadcasts. A
// non-nil straggle runs before each ack — the real-slowness simulation of
// the overlap demo.
func worker(addr string, id int, family *data.Family, tasks int, straggle func(fl.JobSpec)) error {
	alg, err := newAlg(family, tasks)
	if err != nil {
		return err
	}
	ex, err := transport.NewExecutor(alg, 0)
	if err != nil {
		return err
	}
	ex.Straggle = straggle
	w, err := transport.Dial(addr, id)
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Serve(ex.Handle)
}
