package telemetry

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Manifest describes one run — emitted once at startup into the trace
// header (Meta event) and as a build_info-style constant gauge on
// /metrics, so every artifact is self-describing.
type Manifest struct {
	RunID    string
	Role     string // "fedserver", "fedworker", "example"
	Method   string
	Dataset  string
	Seed     int64
	Protocol int
	Start    time.Time
	Flags    map[string]string // non-default flags, for the trace header
}

// NewRunID derives a short stable hex id from the seed and start time.
func NewRunID(seed int64, start time.Time) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d", seed, start.UnixNano())
	return strconv.FormatUint(h.Sum64(), 16)
}

// RoundObservation is one completed round's wire accounting and timing: the
// transport's round record (transport.RoundStats is this type), delivered
// once per round to the Pipeline's OnRound, its cumulative Stats and
// Sink.ObserveRound. Every count is the round's own, so summing the rounds
// gives the run's totals.
type RoundObservation struct {
	// Task and Round identify the round.
	Task, Round int
	// Attempts is how many broadcast waves the round took (1 + re-queue
	// attempts after worker deaths).
	Attempts int
	// Start is when the round's dispatch began.
	Start time.Time
	// BroadcastBytes / UploadBytes are the round's own traffic, whole frames
	// headers included: its broadcasts (re-queue broadcasts included) and
	// its acks.
	BroadcastBytes, UploadBytes int64
	// FullFrames / DeltaFrames / IdleFrames count broadcast frames by state
	// kind: complete snapshots (each a fallback: the worker had no usable
	// base), per-key diffs, and frames carrying jobs without state (a
	// re-queue onto a worker already at the round's version). Every frame
	// of a round carries jobs.
	FullFrames, DeltaFrames, IdleFrames int64
	// PatchUploads / UploadFallbacks count acked job results diffed against
	// the broadcast base and sent as full snapshots.
	PatchUploads, UploadFallbacks int64
	// DispatchNanos is the wall-clock span of the round's dispatch path —
	// frame building plus broadcast sends.
	DispatchNanos int64
	// FirstAckNanos / LastAckNanos are the wall-clock latencies from
	// dispatch start to the round's first and last job ack. Zero when the
	// round had no jobs.
	FirstAckNanos, LastAckNanos int64
}

// Sink is the single facade instrumented layers talk to: it owns a metric
// set on a Registry and optionally mirrors lifecycle events into a Tracer.
// Construct with NewSink; a nil *Sink is the off switch — every method
// no-ops on nil, costing one predictable branch on hot paths and zero
// allocations (gated by TestNilSinkAllocs).
type Sink struct {
	reg    *Registry
	tracer *Tracer

	rounds       *Counter
	attempts     *Counter
	bcastBytes   *Counter
	upBytes      *Counter
	fullFrames   *Counter
	deltaFrames  *Counter
	idleFrames   *Counter
	patchUploads *Counter
	upFallbacks  *Counter
	dispatchHist *Histogram
	firstAckHist *Histogram
	lastAckHist  *Histogram
	workersLive  *Gauge
	joins        *Counter
	deaths       *Counter
	wedges       *Counter
	requeuedJobs *Counter
	folds        *Counter
	unanKeys     *Counter
	brokenKeys   *Counter
	installs     *Counter
	installHist  *Histogram
	ckpts        *Counter
	ckptBytes    *Counter
	ckptHist     *Histogram
	wRounds      *Counter
	wJobs        *Counter
	wRoundHist   *Histogram

	mu      sync.Mutex
	ackHist map[int]*Histogram // per-worker ack latency, keyed by slot
}

// NewSink builds a Sink registering its metric set on reg. tracer may be
// nil (metrics only). A nil reg with a non-nil tracer is also fine
// (trace only).
func NewSink(reg *Registry, tracer *Tracer) *Sink {
	s := &Sink{reg: reg, tracer: tracer, ackHist: make(map[int]*Histogram)}

	s.rounds = reg.Counter("fed_rounds_total", "Completed federation rounds.")
	s.attempts = reg.Counter("fed_round_attempts_total", "Round attempts including requeue retries.")
	s.bcastBytes = reg.Counter("fed_broadcast_bytes_total", "Broadcast frame bytes of completed rounds.")
	s.upBytes = reg.Counter("fed_upload_bytes_total", "Ack frame bytes of completed rounds.")
	s.fullFrames = reg.Counter(`fed_frames_total{kind="full"}`, "Broadcast frames sent by kind.")
	s.deltaFrames = reg.Counter(`fed_frames_total{kind="delta"}`, "Broadcast frames sent by kind.")
	s.idleFrames = reg.Counter(`fed_frames_total{kind="idle"}`, "Broadcast frames sent by kind.")
	s.patchUploads = reg.Counter(`fed_uploads_total{kind="patch"}`, "Result uploads received by kind.")
	s.upFallbacks = reg.Counter("fed_upload_fallbacks_total", "Uploads that fell back to full state dicts.")
	s.dispatchHist = reg.Histogram("fed_round_dispatch_seconds", "Time from round start until the last broadcast finished sending.", DefSecondsBuckets)
	s.firstAckHist = reg.Histogram("fed_round_first_ack_seconds", "Time from round start to the first job ack.", DefSecondsBuckets)
	s.lastAckHist = reg.Histogram("fed_round_last_ack_seconds", "Time from round start to the final job ack.", DefSecondsBuckets)
	s.workersLive = reg.Gauge("fed_workers_live", "Currently live worker connections.")
	s.joins = reg.Counter("fed_worker_joins_total", "Worker join handshakes accepted (includes rejoins).")
	s.deaths = reg.Counter("fed_worker_deaths_total", "Worker slots that died before Shutdown (a failed send or read, a wedge or a stray update).")
	s.wedges = reg.Counter("fed_worker_wedges_total", "Wedged workers detected by heartbeat read deadlines.")
	s.requeuedJobs = reg.Counter("fed_requeued_jobs_total", "Jobs re-queued onto survivors after a worker death.")
	s.folds = reg.Counter("fed_folds_total", "Results folded into streaming weighted averages.")
	s.unanKeys = reg.Counter("fed_fold_unanimous_keys_total", "State-dict keys still bit-identically unanimous at install.")
	s.brokenKeys = reg.Counter("fed_fold_broken_keys_total", "State-dict keys whose unanimity broke during folding.")
	s.installs = reg.Counter("fed_installs_total", "Aggregated models installed into the server.")
	s.installHist = reg.Histogram("fed_install_seconds", "Finalize + load + server-round time per install.", DefSecondsBuckets)
	s.ckpts = reg.Counter("fed_checkpoint_total", "Run-state checkpoint snapshots written.")
	s.ckptBytes = reg.Counter("fed_checkpoint_bytes_total", "Cumulative checkpoint bytes written.")
	s.ckptHist = reg.Histogram("fed_checkpoint_seconds", "Checkpoint write duration.", DefSecondsBuckets)
	s.wRounds = reg.Counter("fed_worker_rounds_total", "Rounds handled on the worker side.")
	s.wJobs = reg.Counter("fed_worker_jobs_total", "Client jobs trained on the worker side.")
	s.wRoundHist = reg.Histogram("fed_worker_round_seconds", "Worker-side round handling duration.", DefSecondsBuckets)
	return s
}

// StartRun records the manifest: a fed_build_info constant gauge whose
// labels carry the run identity, and a trace Meta event with every flag.
func (s *Sink) StartRun(m Manifest) {
	if s == nil {
		return
	}
	name := fmt.Sprintf(`fed_build_info{run_id=%q,role=%q,method=%q,dataset=%q,seed="%d",protocol="%d"}`,
		m.RunID, m.Role, m.Method, m.Dataset, m.Seed, m.Protocol)
	s.reg.Gauge(name, "Constant gauge carrying the run manifest as labels.").Set(1)

	args := []Arg{
		{Key: "run_id", Val: m.RunID}, {Key: "role", Val: m.Role},
		{Key: "method", Val: m.Method}, {Key: "dataset", Val: m.Dataset},
		{Key: "seed", Val: m.Seed}, {Key: "protocol", Val: m.Protocol},
		{Key: "start", Val: m.Start.Format(time.RFC3339Nano)},
	}
	keys := make([]string, 0, len(m.Flags))
	for k := range m.Flags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		args = append(args, Arg{Key: "flag." + k, Val: m.Flags[k]})
	}
	s.tracer.Meta("manifest", args...)
}

// Start is the telemetry start-up of a networked process, from its -metrics
// and -trace flags. It names the run — m.RunID from m.Seed and the start
// time, which it also stores in m.Start — and returns the process's logger,
// writing to w with the run id bound (see newLogger). With both flags empty
// it starts nothing else and returns a nil Sink, on which every
// instrumentation point is a no-op. Otherwise it builds the sink, records m
// as the run manifest with the command line's explicitly set flags, mirrors
// the logger into the trace when tracing, and, when metricsAddr is set,
// serves /metrics and /debug/pprof there and returns the bound address.
func Start(w io.Writer, metricsAddr, traceFile string, m Manifest) (s *Sink, log *slog.Logger, bound string, err error) {
	m.Start = time.Now()
	m.RunID = NewRunID(m.Seed, m.Start)
	if metricsAddr == "" && traceFile == "" {
		return nil, newLogger(w, nil).With("run", m.RunID), "", nil
	}
	var trc *Tracer
	if traceFile != "" {
		if trc, err = CreateTrace(traceFile); err != nil {
			return nil, nil, "", err
		}
	}
	var reg *Registry
	if metricsAddr != "" {
		reg = NewRegistry()
	}
	s = NewSink(reg, trc)
	m.Flags = make(map[string]string)
	flag.Visit(func(f *flag.Flag) { m.Flags[f.Name] = f.Value.String() })
	s.StartRun(m)
	if metricsAddr != "" {
		if bound, err = reg.Serve(metricsAddr); err != nil {
			_ = s.Close()
			return nil, nil, "", err
		}
	}
	return s, newLogger(w, trc).With("run", m.RunID), bound, nil
}

// ObserveRound folds one completed round into the metric set and draws it
// as a span on the "rounds" trace track (tid = round number).
func (s *Sink) ObserveRound(o RoundObservation) {
	if s == nil {
		return
	}
	s.rounds.Inc()
	s.attempts.Add(int64(o.Attempts))
	s.bcastBytes.Add(o.BroadcastBytes)
	s.upBytes.Add(o.UploadBytes)
	s.fullFrames.Add(o.FullFrames)
	s.deltaFrames.Add(o.DeltaFrames)
	s.idleFrames.Add(o.IdleFrames)
	s.patchUploads.Add(o.PatchUploads)
	s.upFallbacks.Add(o.UploadFallbacks)
	s.dispatchHist.Observe(float64(o.DispatchNanos) / 1e9)
	s.firstAckHist.Observe(float64(o.FirstAckNanos) / 1e9)
	s.lastAckHist.Observe(float64(o.LastAckNanos) / 1e9)

	if s.tracer != nil {
		wall := time.Duration(o.LastAckNanos)
		s.tracer.Span("rounds", int64(o.Round), fmt.Sprintf("task %d round %d", o.Task, o.Round),
			o.Start, wall,
			Arg{Key: "task", Val: o.Task}, Arg{Key: "round", Val: o.Round},
			Arg{Key: "attempts", Val: o.Attempts},
			Arg{Key: "first_ack_ms", Val: float64(o.FirstAckNanos) / 1e6},
		)
		s.tracer.Span("dispatch", int64(o.Round), fmt.Sprintf("dispatch r%d", o.Round),
			o.Start, time.Duration(o.DispatchNanos))
	}
}

// ObserveAck records one job ack's latency into the per-worker histogram
// (lazily registered as fed_ack_latency_seconds{worker="N"}) and as an
// instant on the "workers" trace track.
func (s *Sink) ObserveAck(slot int, latency time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	h, ok := s.ackHist[slot]
	if !ok {
		h = s.reg.Histogram(fmt.Sprintf(`fed_ack_latency_seconds{worker="%d"}`, slot),
			"Per-worker job ack latency from round start.", DefSecondsBuckets)
		s.ackHist[slot] = h
	}
	s.mu.Unlock()
	h.Observe(latency.Seconds())
	if s.tracer != nil {
		s.tracer.Instant("workers", int64(slot), "ack",
			Arg{Key: "slot", Val: slot}, Arg{Key: "latency_ms", Val: float64(latency.Microseconds()) / 1e3})
	}
}

// WorkerJoined records an accepted join handshake (fresh or rejoin).
func (s *Sink) WorkerJoined(slot int, workerID, live int) {
	if s == nil {
		return
	}
	s.joins.Inc()
	s.workersLive.Set(float64(live))
	s.tracer.Instant("membership", int64(slot), "join",
		Arg{Key: "slot", Val: slot}, Arg{Key: "worker_id", Val: workerID})
	s.tracer.Value("membership", "workers_live", float64(live))
}

// WorkerDead records a worker slot's death, counted once by the coordinator.
func (s *Sink) WorkerDead(slot int) {
	if s == nil {
		return
	}
	s.deaths.Inc()
	s.tracer.Instant("membership", int64(slot), "death", Arg{Key: "slot", Val: slot})
}

// SetLiveWorkers tracks the live-connection gauge from the coordinator's
// membership bookkeeping (join, markDead, shutdown all pass through it).
func (s *Sink) SetLiveWorkers(n int) {
	if s == nil {
		return
	}
	s.workersLive.Set(float64(n))
	s.tracer.Value("membership", "workers_live", float64(n))
}

// WedgeDetected records a heartbeat read-deadline firing on a slot.
func (s *Sink) WedgeDetected(slot int) {
	if s == nil {
		return
	}
	s.wedges.Inc()
	s.tracer.Instant("membership", int64(slot), "wedge_detect", Arg{Key: "slot", Val: slot})
}

// Requeued records jobs re-queued onto survivors after a death.
func (s *Sink) Requeued(task, round, jobs int) {
	if s == nil {
		return
	}
	s.requeuedJobs.Add(int64(jobs))
	s.tracer.Instant("rounds", int64(round), "requeue",
		Arg{Key: "task", Val: task}, Arg{Key: "round", Val: round}, Arg{Key: "jobs", Val: jobs})
}

// Installed records one aggregate install: fold count, unanimity
// bookkeeping from the accumulator, and the install span.
func (s *Sink) Installed(task, round, folded, unanimousKeys, brokenKeys int, dur time.Duration) {
	if s == nil {
		return
	}
	s.folds.Add(int64(folded))
	s.unanKeys.Add(int64(unanimousKeys))
	s.brokenKeys.Add(int64(brokenKeys))
	s.installs.Inc()
	s.installHist.Observe(dur.Seconds())
	s.tracer.Span("install", int64(round), fmt.Sprintf("install t%d r%d", task, round),
		time.Now().Add(-dur), dur,
		Arg{Key: "folded", Val: folded}, Arg{Key: "unanimous_keys", Val: unanimousKeys})
}

// CheckpointWritten records one run-state snapshot write.
func (s *Sink) CheckpointWritten(task, round int, bytes int64, dur time.Duration) {
	if s == nil {
		return
	}
	s.ckpts.Inc()
	s.ckptBytes.Add(bytes)
	s.ckptHist.Observe(dur.Seconds())
	s.tracer.Span("checkpoint", 0, fmt.Sprintf("checkpoint t%d r%d", task, round),
		time.Now().Add(-dur), dur,
		Arg{Key: "bytes", Val: bytes})
}

// WorkerRound records one worker-side round handled (fedworker).
func (s *Sink) WorkerRound(task, round, jobs int, dur time.Duration) {
	if s == nil {
		return
	}
	s.wRounds.Inc()
	s.wJobs.Add(int64(jobs))
	s.wRoundHist.Observe(dur.Seconds())
	s.tracer.Span("worker", int64(round), fmt.Sprintf("train t%d r%d", task, round),
		time.Now().Add(-dur), dur,
		Arg{Key: "jobs", Val: jobs})
}

// Close flushes and closes the tracer (the registry needs no teardown).
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	return s.tracer.Close()
}
