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
// A. The accuracy-matrix block printed at the end is the one reffil prints
// for the same four flags, byte for byte. Start the server, then one
// fedworker per machine with the same four flags (any worker count works,
// jobs are fanned out round-robin):
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
// the same flags and re-dialed workers, the final accuracy matrix is
// bit-identical to an uninterrupted run (see README "Elastic membership &
// resume"). A snapshot written under another -method, -dataset, -scale or
// -seed is refused.
//
// -metrics ADDR serves a Prometheus /metrics page (round, byte,
// frame-kind, liveness, fold and checkpoint series that reconcile with the
// wire totals) and, beside it, the net/http/pprof endpoints for live
// CPU/heap profiling of a running coordinator; -trace FILE records the
// round/job lifecycle as a Chrome trace-event file loadable in Perfetto.
// Both are off by default and cost nothing when disabled (see README
// "Observability").
package main

import (
	"errors"
	"flag"
	"fmt"
	// Register the /debug/pprof handlers that -metrics serves.
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"reffil/internal/checkpoint"
	"reffil/internal/experiments"
	"reffil/internal/fl"
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

// visitedFlags returns the explicitly set command-line flags, for the run
// manifest in the trace header.
func visitedFlags() map[string]string {
	m := make(map[string]string)
	flag.Visit(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:7000", "listen address")
		workers = flag.Int("workers", 2, "number of fedworkers to wait for before the run starts; later dials are admitted mid-run")
		method  = flag.String("method", "RefFiL", "method ("+strings.Join(experiments.MethodNames, ", ")+"; must match workers)")
		dataset = flag.String("dataset", "pacs", "dataset family (digitsfive, officecaltech10, pacs, feddomainnet; must match workers)")
		scaleF  = flag.String("scale", "mini", "run scale (smoke, mini, paper; must match workers)")
		seed    = flag.Int64("seed", 1, "shared run seed (must match workers)")
		ckpt    = flag.String("checkpoint", "", "path to write the final global model")
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
	alg, family, domains, cfg, err := experiments.BuildRun(*method, *dataset, scale, experiments.OrderA, experiments.NoOverrides, *seed, nil)
	if err != nil {
		return err
	}
	// Resume if a snapshot exists (a fresh directory starts a fresh run),
	// and refuse someone else's run before waiting for any worker.
	var (
		ckptPath string
		resume   *checkpoint.RunState
	)
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("creating -checkpoint-dir: %w", err)
		}
		ckptPath = filepath.Join(*ckptDir, "run.ckpt")
		rs, err := checkpoint.LoadRunStateFile(ckptPath)
		switch {
		case err == nil:
			if rs.Method != *method || rs.Dataset != *dataset || rs.Scale != *scaleF || rs.Seed != *seed {
				return fmt.Errorf("%s was written by -method %s -dataset %s -scale %s -seed %d, not -method %s -dataset %s -scale %s -seed %d",
					ckptPath, rs.Method, rs.Dataset, rs.Scale, rs.Seed, *method, *dataset, *scaleF, *seed)
			}
			resume = rs
		case !errors.Is(err, os.ErrNotExist):
			return err
		}
	}
	// Telemetry is strictly opt-in: with both flags empty sink stays nil
	// and every instrumentation point below is a nil-receiver no-op, so
	// hot paths stay allocation-free and outputs bit-identical.
	var (
		reg  *telemetry.Registry
		sink *telemetry.Sink
	)
	startTime := time.Now()
	runID := telemetry.NewRunID(*seed, startTime)
	if *metricsAddr != "" || *traceFile != "" {
		var trc *telemetry.Tracer
		if *metricsAddr != "" {
			reg = telemetry.NewRegistry()
		}
		if *traceFile != "" {
			trc, err = telemetry.CreateTrace(*traceFile)
			if err != nil {
				return err
			}
		}
		sink = telemetry.NewSink(reg, trc)
		defer sink.Close()
	}
	// One structured logger for the wire/lifecycle lines, sharing the run
	// id — and, when tracing, the timeline — with the telemetry sink.
	wlog := telemetry.NewLogger(os.Stdout, telemetry.F("run", runID))
	wlog.Tracer = sink.Tracer()

	if *metricsAddr != "" {
		bound, err := reg.Serve(*metricsAddr)
		if err != nil {
			return err
		}
		fmt.Printf("metrics listening on http://%s/metrics\n", bound)
	}
	sink.StartRun(telemetry.Manifest{
		RunID: runID, Role: "fedserver",
		Method: *method, Dataset: *dataset,
		Seed: *seed, Protocol: transport.ProtocolVersion, Start: startTime,
		Flags: visitedFlags(),
	})

	coord, err := transport.Listen(*addr)
	if err != nil {
		return err
	}
	defer coord.Close()
	coord.SetTelemetry(sink)
	wlog.Event("listening", telemetry.F("addr", coord.Addr()), telemetry.F("waiting_for", *workers))
	if err := coord.Accept(*workers, *timeout); err != nil {
		return err
	}
	wlog.Event("workers_connected")

	tr, err := transport.NewPipeline(coord, alg)
	if err != nil {
		return err
	}
	tr.JoinWait = *joinWait
	tr.Telemetry = sink
	tr.OnRound = func(rs transport.RoundStats) {
		wlog.Event("wire_round",
			telemetry.F("task", rs.Task), telemetry.F("round", rs.Round),
			telemetry.F("broadcast", fmtBytes(rs.BroadcastBytes)), telemetry.F("uploads", fmtBytes(rs.UploadBytes)),
			telemetry.F("patch", rs.PatchUploads),
			telemetry.F("full", rs.FullFrames), telemetry.F("delta", rs.DeltaFrames), telemetry.F("idle", rs.IdleFrames),
			telemetry.F("fallbacks", rs.Fallbacks), telemetry.F("upload_fallbacks", rs.UploadFallbacks),
			telemetry.F("attempts", rs.Attempts),
			telemetry.F("dispatch_ms", fmt.Sprintf("%.1f", float64(rs.DispatchNanos)/1e6)),
			telemetry.F("first_ack_ms", fmt.Sprintf("%.1f", float64(rs.FirstAckNanos)/1e6)),
			telemetry.F("last_ack_ms", fmt.Sprintf("%.1f", float64(rs.LastAckNanos)/1e6)))
	}
	eng, err := fl.NewEngineWithRunner(cfg, alg, tr)
	if err != nil {
		return err
	}
	eng.Progress = func(msg string) { fmt.Println(msg) }
	eng.Telemetry = sink

	if resume != nil {
		eng.Resume = &fl.ResumeState{
			NextTask:   resume.NextTask,
			NextRound:  resume.NextRound,
			Matrix:     resume.Matrix,
			Global:     resume.Global,
			Payload:    resume.Payload,
			HasPayload: resume.HasPayload,
		}
		fmt.Printf("resuming from %s at task %d round %d\n", ckptPath, resume.NextTask, resume.NextRound)
	}
	if ckptPath != "" {
		eng.Checkpoint = func(st fl.ResumeState) error {
			begin := time.Now()
			err := checkpoint.SaveRunStateFile(ckptPath, &checkpoint.RunState{
				Method:     *method,
				Dataset:    *dataset,
				Scale:      *scaleF,
				Seed:       *seed,
				NextTask:   st.NextTask,
				NextRound:  st.NextRound,
				Matrix:     st.Matrix,
				Global:     st.Global,
				Payload:    st.Payload,
				HasPayload: st.HasPayload,
			})
			if err == nil && sink != nil {
				var bytes int64
				if fi, serr := os.Stat(ckptPath); serr == nil {
					bytes = fi.Size()
				}
				sink.CheckpointWritten(st.NextTask, st.NextRound, bytes, time.Since(begin))
			}
			return err
		}
	}

	mat, err := eng.Run(family, domains)
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
	if err := experiments.PrintMatrix(os.Stdout, *method, *dataset, mat); err != nil {
		return err
	}

	if *ckpt != "" {
		if err := checkpoint.SaveModule(*ckpt, alg.Global()); err != nil {
			return err
		}
		fmt.Println("saved global model to", *ckpt)
	}
	// Closed before the worker goodbye: collectors must stop treating the
	// connection teardown Shutdown triggers as worker deaths. The goodbye is
	// best-effort: a worker that died after its last reply must not discard
	// a completed run's results.
	_ = tr.Close()
	if err := coord.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "fedserver: shutdown:", err)
	}
	return nil
}
