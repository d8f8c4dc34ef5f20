// Command fedserver is the coordinator of a real networked federation. It
// runs the full fl.Engine — the paper's client-increment strategy,
// per-round participant selection, dropout, FedAvg weighted by local
// dataset size, and the method's server hooks — on transport.Pipeline, so
// every paper scenario that runs single-process runs multi-node with
// bit-identical accuracy matrices for the same seed.
//
// A run is named by -method, -dataset, -scale and -seed, exactly as in
// cmd/reffil: the method is one of the paper's eight table names, and the
// scale preset (smoke, mini, paper) fixes the rounds, epochs, client pool,
// data volume and backbone, over the family's domains in the paper's order
// A. The accuracy-matrix block printed at the end, with its closing state
// hash of the final weights, is the one reffil prints for the same four
// flags, byte for byte. Start the server, then one fedworker per machine
// with the same four flags (any worker count works: jobs are dealt
// round-robin, and a worker dealt none in a round is sent nothing):
//
//	fedserver -addr 127.0.0.1:7000 -workers 2 -method RefFiL -dataset pacs -scale mini -seed 1
//	fedworker -addr 127.0.0.1:7000 -id 0 -method RefFiL -dataset pacs -scale mini -seed 1 &
//	fedworker -addr 127.0.0.1:7000 -id 1 -method RefFiL -dataset pacs -scale mini -seed 1 &
//
// Workers derive their data shards from the job specs the server
// broadcasts (dataset, domain, seed, partition slot), so no training data
// ever crosses the wire — only model state, wire state and job framing.
//
// Rounds are synchronous (the paper's Algorithm 1) and fault-tolerant: a
// worker that dies mid-round has its unfinished jobs re-queued on the
// survivors and the run continues on the remaining pool, with the same
// final numbers.
//
// The wire format is lossless and ships what changed: broadcasts carry
// per-key diffs against each worker's last-acked base version (a full
// snapshot when it holds none), each job's trained state comes back as a
// patch against the round's broadcast base, and the method wire state (e.g.
// LwF's teacher, a full model) is re-sent only when its bytes change. Every
// round's bytes and frame kinds are logged.
//
// Membership is elastic: the coordinator admits worker dials for its whole
// lifetime, so -workers only gates the start of the run. A worker that dies
// can re-dial (fedworker -rejoin) and a fresh worker can join mid-run, each
// entering a new slot that receives a full state snapshot on its next
// broadcast; -join-wait is how long a round with no live worker waits for
// such a dial. A worker that advertises a heartbeat (fedworker -heartbeat)
// is declared dead after 4x that interval without traffic, so a silently
// wedged worker (connection open, nothing flowing) stalls a round for at
// most that long before its jobs re-queue.
//
// -checkpoint-dir makes the coordinator itself restartable: the engine
// snapshots resumable run state after every round and every task, and a
// restarted fedserver pointed at the same directory resumes the run — with
// the same flags and re-dialed workers, the final accuracy matrix and
// weights are bit-identical to an uninterrupted run (see README "Elastic
// membership and resume"). A snapshot written under another -method,
// -dataset, -scale or -seed is refused before any worker is awaited. The
// snapshot written after the last task holds the final global model; it is
// the only model file the coordinator writes. Building, resuming and
// snapshotting the run is experiments.NewRun and Run.Execute, as for
// cmd/reffil; this command adds the network.
//
// -metrics ADDR serves a Prometheus /metrics page (round, byte,
// frame-kind, liveness, fold and checkpoint series that reconcile with the
// wire totals) and, beside it, the net/http/pprof endpoints for live
// CPU/heap profiling of a running coordinator; -trace FILE records the
// round/job lifecycle as a Chrome trace-event file loadable in Perfetto.
// Both are off by default and cost nothing when disabled (see README
// "Observability"). Lifecycle events and each round's record go to stdout
// as `evt=<event> run=<id> key=value ...` lines, written by log/slog's
// TextHandler through the logger telemetry.Start returns; under -trace each
// line is also an instant on the trace's "log" track.
package main

import (
	"flag"
	"fmt"
	// Register the /debug/pprof handlers that -metrics serves.
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"reffil/internal/experiments"
	"reffil/internal/fl/transport"
	"reffil/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fedserver:", err)
		os.Exit(1)
	}
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// perRound divides safely.
func perRound(total, rounds int64) int64 {
	if rounds == 0 {
		return 0
	}
	return total / rounds
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:7000", "listen address")
		workers = flag.Int("workers", 2, "number of fedworkers to wait for before the run starts; later dials are admitted mid-run")
		method  = flag.String("method", "RefFiL", "method ("+strings.Join(experiments.MethodNames, ", ")+"; must match workers)")
		dataset = flag.String("dataset", "pacs", "dataset family (digitsfive, officecaltech10, pacs, feddomainnet; must match workers)")
		scaleF  = flag.String("scale", "mini", "run scale (smoke, mini, paper; must match workers)")
		seed    = flag.Int64("seed", 1, "shared run seed (must match workers)")
		timeout = flag.Duration("accept-timeout", 60*time.Second, "worker accept timeout")

		joinWait = flag.Duration("join-wait", 0, "when a round has no live workers, wait this long for a (re-)join before failing (0 = fail fast)")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for resumable run-state checkpoints, written after every round and task; if a run checkpoint already exists there the run resumes from it")

		metricsAddr = flag.String("metrics", "", "serve a Prometheus /metrics page and the /debug/pprof endpoints on this address (e.g. localhost:9090; empty disables both)")
		traceFile   = flag.String("trace", "", "record the round/job lifecycle as a Chrome trace-event file at this path (load in Perfetto; empty disables tracing)")
	)
	flag.Parse()
	scale, err := experiments.ParseScale(*scaleF)
	if err != nil {
		return err
	}
	// A snapshot of another run is refused here, before any worker is
	// awaited.
	r, err := experiments.NewRun(*method, *dataset, scale, experiments.OrderA, experiments.NoOverrides, *seed, nil, *ckptDir)
	if err != nil {
		return err
	}
	sink, log, bound, err := telemetry.Start(os.Stdout, *metricsAddr, *traceFile, telemetry.Manifest{
		Role: "fedserver", Method: *method, Dataset: *dataset,
		Seed: *seed, Protocol: transport.ProtocolVersion,
	})
	if err != nil {
		return err
	}
	defer sink.Close()
	if bound != "" {
		fmt.Printf("metrics listening on http://%s/metrics\n", bound)
	}

	coord, err := transport.Listen(*addr)
	if err != nil {
		return err
	}
	defer coord.Close()
	coord.SetTelemetry(sink)
	log.Info("listening", "addr", coord.Addr(), "waiting_for", *workers)
	if err := coord.Accept(*workers, *timeout); err != nil {
		return err
	}
	log.Info("workers_connected")

	tr, err := transport.NewPipeline(coord, r.Alg)
	if err != nil {
		return err
	}
	tr.JoinWait = *joinWait
	tr.OnRound = func(rs transport.RoundStats) {
		log.Info("wire_round",
			"task", rs.Task, "round", rs.Round,
			"broadcast", fmtBytes(rs.BroadcastBytes), "uploads", fmtBytes(rs.UploadBytes),
			"patch", rs.PatchUploads,
			"full", rs.FullFrames, "delta", rs.DeltaFrames, "idle", rs.IdleFrames,
			"upload_fallbacks", rs.UploadFallbacks,
			"attempts", rs.Attempts,
			"dispatch_ms", fmt.Sprintf("%.1f", float64(rs.DispatchNanos)/1e6),
			"first_ack_ms", fmt.Sprintf("%.1f", float64(rs.FirstAckNanos)/1e6),
			"last_ack_ms", fmt.Sprintf("%.1f", float64(rs.LastAckNanos)/1e6))
	}
	res, err := r.Execute(tr, func(msg string) { fmt.Println(msg) }, sink)
	if err != nil {
		return err
	}

	st := tr.Stats()
	fmt.Printf("wire totals: %d rounds, broadcast %s (%s/round), uploads %s (%s/round, %d patch, %d fallbacks), frames %d full/%d delta/%d idle\n",
		st.Rounds, fmtBytes(st.BroadcastBytes), fmtBytes(perRound(st.BroadcastBytes, st.Rounds)),
		fmtBytes(st.UploadBytes), fmtBytes(perRound(st.UploadBytes, st.Rounds)),
		st.PatchUploads, st.UploadFallbacks,
		st.FullFrames, st.DeltaFrames, st.IdleFrames)
	fmt.Println()
	if err := experiments.PrintMatrix(os.Stdout, res); err != nil {
		return err
	}
	// Closed before the worker goodbye, so no slot reader re-queues while
	// the workers leave; Shutdown stops counting their connections' teardown as
	// deaths. The goodbye is best-effort: a worker that died after its last
	// reply must not discard a completed run's results.
	_ = tr.Close()
	if err := coord.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "fedserver: shutdown:", err)
	}
	return nil
}
