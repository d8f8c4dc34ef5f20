// Command fedworker is one machine of a networked federation: a job
// executor. It connects to a fedserver and serves rounds until the
// coordinator signals completion; each broadcast carries the global model
// state, the method's wire state and this worker's job assignment. The
// worker derives every job's private shard from the spec's (dataset,
// domain, seed, partition slot) coordinates — no training data crosses the
// wire — and runs its jobs through the same worker-pool runner the
// in-process engine uses, acknowledging each job as it completes. When a
// peer worker dies mid-round, the coordinator re-queues that worker's
// unfinished jobs here in a follow-up broadcast for the same round; jobs
// are placement-free, so re-execution yields the identical result.
//
// Broadcast state arrives as versioned wire frames: a full snapshot the
// first time, then per-key diffs against the state this worker already
// holds, with the method's wire state re-sent only when it changes. The
// worker answers each job with a lossless patch of its trained state
// against the round's broadcast base instead of the full dict.
//
// Membership is elastic: dials are bounded (-dial-timeout)
// and retried with exponential backoff (-dial-retries/-dial-backoff), the
// worker streams liveness heartbeats (-heartbeat) so a wedged process is
// detected within a bounded interval instead of on a read error, and
// -rejoin N re-dials a lost coordinator up to N times — on re-admission
// the coordinator hands this worker a fresh slot and a full state
// snapshot, so a restarted worker (or a restarted, resuming fedserver)
// continues the run bit-identically.
//
// -method, -dataset, -scale and -seed must match the fedserver's flags: the
// worker builds its method through the same experiments.NewRun, so the
// backbone, task horizon and initial weights equal the coordinator's. See
// cmd/fedserver for the full deployment recipe.
//
// -metrics ADDR serves a Prometheus /metrics page with this worker's
// round/job counters and, beside it, the net/http/pprof endpoints for live
// CPU/heap profiling — the worker is where the kernel hot paths (local
// training) burn; -trace FILE records its round lifecycle as a Chrome
// trace-event file. Both are off by default (see README "Observability").
// Dials, re-joins and each handled round go to stdout as `evt=<event>
// run=<id> worker=<id> key=value ...` lines, written by log/slog's
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
		fmt.Fprintln(os.Stderr, "fedworker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:7000", "coordinator address")
		id      = flag.Int("id", 0, "worker id (0-based, for logs)")
		method  = flag.String("method", "RefFiL", "method ("+strings.Join(experiments.MethodNames, ", ")+"; must match fedserver)")
		dataset = flag.String("dataset", "pacs", "dataset family (digitsfive, officecaltech10, pacs, feddomainnet; must match fedserver)")
		scaleF  = flag.String("scale", "mini", "run scale (smoke, mini, paper; must match fedserver)")
		seed    = flag.Int64("seed", 1, "shared run seed (must match fedserver)")
		jobs    = flag.Int("jobs", 0, "concurrent jobs per round (0 = NumCPU)")

		dialTimeout = flag.Duration("dial-timeout", 10*time.Second, "TCP dial + join handshake timeout (0 = unbounded, hangs forever on a half-open coordinator)")
		dialRetries = flag.Int("dial-retries", 5, "retry a failed dial this many times before giving up")
		dialBackoff = flag.Duration("dial-backoff", 500*time.Millisecond, "initial delay between dial retries, doubling per attempt")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "stream liveness heartbeats to the coordinator on this interval so wedge detection is bounded (0 disables)")
		rejoin      = flag.Int("rejoin", 0, "re-dial and re-join a lost coordinator up to this many times (0 = exit on first disconnect)")

		metricsAddr = flag.String("metrics", "", "serve a Prometheus /metrics page and the /debug/pprof endpoints on this address (empty disables both)")
		traceFile   = flag.String("trace", "", "record this worker's round lifecycle as a Chrome trace-event file at this path (empty disables tracing)")
	)
	flag.Parse()
	scale, err := experiments.ParseScale(*scaleF)
	if err != nil {
		return err
	}
	r, err := experiments.NewRun(*method, *dataset, scale, experiments.OrderA, experiments.NoOverrides, *seed, nil, "")
	if err != nil {
		return err
	}
	sink, log, bound, err := telemetry.Start(os.Stdout, *metricsAddr, *traceFile, telemetry.Manifest{
		Role: "fedworker", Method: *method, Dataset: *dataset,
		Seed: *seed, Protocol: transport.ProtocolVersion,
	})
	if err != nil {
		return err
	}
	defer sink.Close()
	if bound != "" {
		fmt.Printf("worker %d: metrics listening on http://%s/metrics\n", *id, bound)
	}
	log = log.With("worker", *id)

	ex, err := transport.NewExecutor(r.Alg, *jobs)
	if err != nil {
		return err
	}

	opts := transport.DialOptions{Timeout: *dialTimeout, Heartbeat: *heartbeat}
	dial := func() (*transport.Worker, error) {
		w, err := transport.DialWith(*addr, *id, opts)
		for backoff, attempt := *dialBackoff, 0; err != nil && attempt < *dialRetries; attempt++ {
			log.Info("dial_retry", "addr", *addr, "error", err.Error(), "backoff", backoff.String())
			time.Sleep(backoff)
			backoff *= 2
			w, err = transport.DialWith(*addr, *id, opts)
		}
		return w, err
	}
	handle := func(b transport.Broadcast, emit func(transport.JobResult) error) error {
		begin := time.Now()
		trained := 0
		if err := ex.Handle(b, func(jr transport.JobResult) error {
			trained++
			return emit(jr)
		}); err != nil {
			return err
		}
		sink.WorkerRound(b.Task, b.Round, trained, time.Since(begin))
		log.Info("round_done", "task", b.Task, "round", b.Round, "trained", trained)
		return nil
	}

	// The re-join loop: serve until the coordinator says Done (clean exit)
	// or the connection is lost. The Executor survives re-dials, so its
	// partition cache is retained; its stream state is reset, because the
	// coordinator admits a re-dial into a fresh slot it holds no state for.
	for attempt := 0; ; attempt++ {
		w, err := dial()
		if err != nil {
			return err
		}
		log.Info("connected", "addr", *addr, "method", r.Alg.Name(), "dataset", *dataset)
		err = w.Serve(handle)
		_ = w.Close()
		if err == nil {
			return nil
		}
		if attempt >= *rejoin {
			return err
		}
		log.Info("rejoin", "error", err.Error(), "attempt", attempt+1, "max", *rejoin)
		ex.ResetStream()
	}
}
