package main

// metricDef describes one metric. This table is the benchmark's single
// source of truth: BENCHMARK.json repeats names, units, directions and
// bounds (spec_test.go keeps the two equal), and carries none of the rest
// because its schema has no room for it.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is how much worse than the baseline's median a median may be
	// before -compare calls it regressed: a share of the baseline, or in the
	// metric's own unit when absolute is set. Layer metrics have none.
	bound    float64
	absolute bool
	// contract marks the end-to-end metrics defined on every workload, the
	// ones BENCHMARK.json lists; the others are omitted where they have no
	// meaning.
	contract bool
	// exact marks a count that repeats exactly for a seed, so a later issue
	// may rest a claim on it.
	exact bool
	// def says what is measured; moves, written before anything was
	// measured, which end-to-end metric the layer metric should move on
	// which workload.
	def   string
	moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

// Interaction predictions shared by several layer metrics.
const (
	movesTrain   = "run_wall_s and client_updates_per_s on local_reffil_pacs and tcp_reffil_pacs (LocalTrain is about 85% of core time there, so 20% off the step is about 17% off the wall); no change on tcp_synth_*"
	movesStepMem = "alloc_mb_per_update and allocs_per_update on the two PACS rows, and through GC pressure run_wall_s there; no change on tcp_synth_*"
	movesComms   = "run_wall_s and client_updates_per_s on tcp_synth_dense and tcp_synth_sparse, where compute is about 5% and nothing hides it; on tcp_reffil_pacs at most the gap to local_reffil_pacs; no change on local_reffil_pacs"
	movesBytes   = "wire_mb_per_round on the three TCP rows"
	movesPACS    = "run_wall_s on the two PACS rows only, bounded by its measured share of the wall"
	movesNone    = "nothing by itself: it is a witness that the workload ran as described"
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off as the median over a workload's timed runs.
var endToEnd = []metricDef{
	{name: "run_wall_s", unit: "s", better: lower, bound: 0.25, contract: true,
		def: "wall clock of Engine.Run"},
	{name: "client_updates_per_s", unit: "1/s", better: higher, bound: 0.25, contract: true,
		def: "completed client updates / run_wall_s: 80 on the PACS rows, 8 x rounds on the synthetic ones"},
	{name: "alloc_mb_per_update", unit: "MB", better: lower, bound: 0.02, contract: true,
		def: "MemStats.TotalAlloc delta over Engine.Run / client updates, coordinator and in-process workers together"},
	{name: "allocs_per_update", unit: "count", better: lower, bound: 0.02, contract: true,
		def: "MemStats.Mallocs delta over Engine.Run / client updates"},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.25, contract: true,
		def: "VmHWM of the run's process when Engine.Run returns: what a simulated device plus coordinator needs"},
	{name: "setup_s", unit: "s", better: lower, bound: 0.25, contract: true,
		def: "start of construction to the point Engine.Run can be called: family, method construction, and on TCP rows listen, dial, accept and codec selection; median of the set-ups a run repeats for a quarter of a second"},
	{name: "wire_mb_per_round", unit: "MB", better: lower, bound: 0.01, exact: true,
		def: "Pipeline.Stats() broadcast + upload bytes / rounds; TCP rows only"},
	{name: "avg_acc_pct", unit: "%", better: higher, bound: 1.0, absolute: true, exact: true,
		def: "metrics.Matrix.Avg() x 100, exact for a seed; PACS rows only"},
	{name: "failed_share", unit: "ratio", better: lower, bound: 0, absolute: true, exact: true,
		def: "(failed client updates + every update of a run whose output check failed) / updates attempted"},
}

// perLayer are the metrics of single layers, from one traced run per
// workload: spans recorded by this package's decorators around the real
// run, then probes that call a layer's public functions on inputs captured
// from that run. A layer that is not on a workload's path reports 0.
var perLayer = []metricDef{
	{name: "fl.round_collect_ms", unit: "ms", better: lower, moves: "run_wall_s on every row: rounds are a closed loop, so the wall is their sum plus evaluation",
		def: "RunEach span, median over the run's rounds"},
	{name: "fl.round_collect_max_ms", unit: "ms", better: lower, moves: "run_wall_s on every row; with two workers the slower one sets a round's time, so the slowest round shows imbalance first",
		def: "RunEach span, slowest round"},
	{name: "alg.local_train_ms", unit: "ms", better: lower, moves: movesTrain,
		def: "LocalTrain span per update, median: package core on the PACS rows, the stub on the synthetic ones"},
	{name: "alg.local_train_core_share", unit: "ratio", better: higher, moves: movesNone,
		def: "sum of LocalTrain spans / (wall x 2 cores)"},
	{name: "alg.spawn_ms", unit: "ms", better: lower, moves: movesComms,
		def: "Spawn span per update, median: the deep copy of the global state"},
	{name: "alg.server_round_ms", unit: "ms", better: lower, moves: movesPACS,
		def: "ServerRound span per round, median: FINCH clustering of the uploads on the PACS rows"},
	{name: "alg.predict_ms", unit: "ms", better: lower, moves: movesPACS,
		def: "sum of Predict spans: evaluation"},
	{name: "alg.task_hooks_ms", unit: "ms", better: lower, moves: movesPACS,
		def: "sum of OnTaskStart and OnTaskEnd spans"},
	{name: "fl.fold_ms", unit: "ms", better: lower, moves: movesComms,
		def: "the engine's done callback per ack, median: admission and Accumulator.Fold"},
	{name: "fl.install_ms", unit: "ms", better: lower, moves: movesComms,
		def: "RunEach return to ServerRound entry per round, median: Finalize and LoadStateDict"},
	{name: "checkpoint.save_ms", unit: "ms", better: lower, moves: "run_wall_s on tcp_reffil_pacs only",
		def: "Engine.Checkpoint hook per call, median; tcp_reffil_pacs"},
	{name: "checkpoint.bytes", unit: "B", better: lower, exact: true, moves: "checkpoint.save_ms, and through it run_wall_s on tcp_reffil_pacs",
		def: "size of the last run-state file written"},
	{name: "transport.exposed_ms", unit: "ms", better: lower, moves: movesComms + "; it only shortens the wall where compute does not already cover it, which is why it is the uncovered part",
		def: "per round, the RunEach span minus the union of the LocalTrain spans inside it: dispatch, encode, framing, socket, decode and fold time not hidden behind compute; median"},
	{name: "transport.exposed_share", unit: "ratio", better: lower, moves: movesNone,
		def: "sum of exposed time / wall"},
	{name: "transport.broadcast_bytes", unit: "B", better: lower, moves: movesBytes,
		def: "Pipeline.Stats().BroadcastBytes: socket bytes, gob framing and job specs included"},
	{name: "transport.upload_bytes", unit: "B", better: lower, moves: movesBytes,
		def: "Pipeline.Stats().UploadBytes"},
	{name: "transport.wire_mb_per_round", unit: "MB", better: lower, moves: "it is wire_mb_per_round, listed here because the contract's end-to-end metrics must exist on every workload",
		def: "(broadcast + upload bytes) / 1e6 / rounds"},
	{name: "transport.full_frames", unit: "count", better: lower, exact: true, moves: movesBytes,
		def: "broadcast frames that carried a full snapshot"},
	{name: "transport.delta_frames", unit: "count", better: higher, exact: true, moves: movesBytes,
		def: "broadcast frames that carried a per-key diff"},
	{name: "transport.fallbacks", unit: "count", better: lower, exact: true, moves: movesBytes,
		def: "full snapshots the delta codec was forced into: one per worker"},
	{name: "transport.patch_uploads", unit: "count", better: higher, exact: true, moves: movesNone,
		def: "acks that carried a patch: every update"},
	{name: "run.unattributed_ms", unit: "ms", better: lower, moves: "run_wall_s on every row by exactly its size: Family.Generate, partitioning, selection and metrics live here, so data.* lands here and not in setup_s",
		def: "wall minus the sum of round_collect, install, server_round, predict, checkpoint and task_hooks spans, so the budget sums to the wall"},
	{name: "trace.overhead_pct", unit: "%", better: lower, moves: movesNone,
		def: "traced wall against the untraced median"},
	{name: "data.generate_ms", unit: "ms", better: lower, moves: "run.unattributed_ms and through it run_wall_s on every row; not setup_s, generation happens inside Engine.Run",
		def: "probe: Family.Generate for task 0"},
	{name: "data.materialize_ms", unit: "ms", better: lower, moves: "fl.round_collect_ms of a worker's first round on the TCP rows",
		def: "probe: ShardSpec.Materialize, cold, over the first round's specs"},
	{name: "step.forward_ms", unit: "ms", better: lower, moves: movesTrain,
		def: "probe: one minibatch through Backbone.Forward and cross-entropy at the workload's model.Config; PACS rows"},
	{name: "step.backward_ms", unit: "ms", better: lower, moves: movesTrain,
		def: "probe: autograd.Backward of that loss"},
	{name: "step.optim_ms", unit: "ms", better: lower, moves: movesTrain,
		def: "probe: opt.SGD.Step"},
	{name: "step.allocs", unit: "count", better: lower, moves: movesStepMem,
		def: "probe: Mallocs of one forward, backward and step; repeats to within a few allocations, the runtime's own included"},
	{name: "step.alloc_kb", unit: "KB", better: lower, moves: movesStepMem,
		def: "probe: TotalAlloc of one forward, backward and step"},
	{name: "wire.encode_upload_ms", unit: "ms", better: lower, moves: movesComms,
		def: "probe: delta Encode of (global after round 1, a client trained from it)"},
	{name: "wire.decode_upload_ms", unit: "ms", better: lower, moves: movesComms,
		def: "probe: Decode of that patch"},
	{name: "wire.upload_patch_bytes", unit: "B", better: lower, exact: true, moves: movesBytes,
		def: "probe: size of that patch"},
	{name: "wire.encode_broadcast_ms", unit: "ms", better: lower, moves: movesComms,
		def: "probe: delta Encode of (global after round 1, global after round 2)"},
	{name: "wire.broadcast_patch_bytes", unit: "B", better: lower, exact: true, moves: movesBytes,
		def: "probe: size of that patch"},
	{name: "transport.frame_codec_ms", unit: "ms", better: lower, moves: movesComms + "; frame-layer allocations move allocs_per_update on all three TCP rows",
		def: "probe: gob encode and decode of a transport.JobResult carrying the upload patch through a bytes.Buffer"},
	{name: "finch.cluster_ms", unit: "ms", better: lower, moves: movesPACS,
		def: "probe: finch.Cluster on the final prompt bank; PACS rows"},
	{name: "core.bank_prompts", unit: "count", better: lower, exact: true, moves: "finch.cluster_ms and the wire-state payload in transport.broadcast_bytes on tcp_reffil_pacs",
		def: "rows of RefFiL.Bank().Flatten() at the end of the run"},
	{name: "metrics.avg_acc_pct", unit: "%", better: higher, exact: true, moves: "it is avg_acc_pct, listed here because the contract's end-to-end metrics must exist on every workload",
		def: "metrics.Matrix.Avg() x 100; PACS rows"},
}
