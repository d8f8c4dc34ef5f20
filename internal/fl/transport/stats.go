package transport

import (
	"time"

	"reffil/internal/telemetry"
)

// Stats aggregates the Pipeline's wire accounting: the evidence that delta
// broadcast actually saves bytes. Byte counts are whole frames at the
// coordinator's sockets — every broadcast written and every ack read,
// headers and job specs included (Coordinator.BytesTransferred) — so they
// reflect what a real network carries for the rounds, not just tensor
// payloads, and two runs of the same federation report the same counts.
type Stats struct {
	// Rounds is how many rounds completed.
	Rounds int64
	// BroadcastBytes / UploadBytes are the broadcast and ack frame bytes
	// between the first dispatch and the most recent round completion.
	BroadcastBytes int64
	UploadBytes    int64
	// FullFrames / DeltaFrames / IdleFrames count broadcast frames by state
	// kind: complete snapshots, per-key diffs, and frames carrying no state
	// at all (idle workers, and re-queued jobs on a worker already at the
	// current version).
	FullFrames  int64
	DeltaFrames int64
	IdleFrames  int64
	// Fallbacks counts the full snapshots sent because the target worker
	// had no usable base version: fresh connections, and re-queued work on
	// a survivor that never saw the state. Every full frame is one, so it
	// always equals FullFrames.
	Fallbacks int64
	// PatchUploads counts acked job results diffed against the round's
	// broadcast base.
	PatchUploads int64
	// UploadFallbacks counts acked job results sent as full snapshots: the
	// worker held no base to diff against.
	UploadFallbacks int64
}

// add accumulates one completed round's counts; Pipeline.finishRound sets
// the byte totals from the coordinator's counters.
func (s *Stats) add(rs RoundStats) {
	s.Rounds++
	s.FullFrames += rs.FullFrames
	s.DeltaFrames += rs.DeltaFrames
	s.IdleFrames += rs.IdleFrames
	s.Fallbacks += rs.Fallbacks
	s.PatchUploads += rs.PatchUploads
	s.UploadFallbacks += rs.UploadFallbacks
}

// RoundStats is one completed round's slice of the accounting, delivered
// through Pipeline.OnRound.
type RoundStats struct {
	// Task and Round identify the round.
	Task, Round int
	// Attempts is how many broadcast waves the round took (1 + re-queue
	// attempts after worker deaths).
	Attempts int
	// BroadcastBytes / UploadBytes are the round's own traffic: its
	// broadcasts (re-queue broadcasts included) and its acks.
	BroadcastBytes int64
	UploadBytes    int64
	// Frame counts by state kind, as in Stats.
	FullFrames  int64
	DeltaFrames int64
	IdleFrames  int64
	Fallbacks   int64
	// Upload counts by kind, as in Stats.
	PatchUploads    int64
	UploadFallbacks int64
	// DispatchNanos is the wall-clock span of the round's dispatch path —
	// frame building plus broadcast sends.
	DispatchNanos int64
	// FirstAckNanos / LastAckNanos are the wall-clock latencies from
	// dispatch start to the round's first and last job ack. Zero when the
	// round had no jobs.
	FirstAckNanos int64
	LastAckNanos  int64
}

// observation converts one completed round into the telemetry record. Byte
// totals are the cumulative counters at completion, so the /metrics byte
// counters reconcile exactly with Stats.
func (rs RoundStats) observation(start time.Time, totalBroadcast, totalUpload int64) telemetry.RoundObservation {
	return telemetry.RoundObservation{
		Task: rs.Task, Round: rs.Round, Attempts: rs.Attempts, Start: start,
		DispatchNanos: rs.DispatchNanos,
		FirstAckNanos: rs.FirstAckNanos,
		LastAckNanos:  rs.LastAckNanos,
		FullFrames:    rs.FullFrames, DeltaFrames: rs.DeltaFrames,
		IdleFrames: rs.IdleFrames, Fallbacks: rs.Fallbacks,
		PatchUploads: rs.PatchUploads, UploadFallbacks: rs.UploadFallbacks,
		TotalBroadcastBytes: totalBroadcast,
		TotalUploadBytes:    totalUpload,
	}
}
