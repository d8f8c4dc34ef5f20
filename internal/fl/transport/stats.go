package transport

import "reffil/internal/telemetry"

// Stats aggregates the Pipeline's wire accounting across completed rounds:
// the evidence that delta broadcast actually saves bytes. Byte counts are
// whole frames — every broadcast a round writes and every ack it accepts,
// headers and job specs included — so they reflect what a real network
// carries for the rounds, not just tensor payloads, and two runs of the
// same federation report the same counts.
type Stats struct {
	// Rounds is how many rounds completed.
	Rounds int64
	// BroadcastBytes / UploadBytes are the completed rounds' broadcast and
	// ack frame bytes.
	BroadcastBytes int64
	UploadBytes    int64
	// FullFrames / DeltaFrames / IdleFrames count broadcast frames by state
	// kind: complete snapshots, per-key diffs, and job-carrying frames
	// without state (re-queued jobs on a worker already at the current
	// version). A worker dealt no job is sent no frame, so none is counted.
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

// add accumulates one completed round.
func (s *Stats) add(rs RoundStats) {
	s.Rounds++
	s.BroadcastBytes += rs.BroadcastBytes
	s.UploadBytes += rs.UploadBytes
	s.FullFrames += rs.FullFrames
	s.DeltaFrames += rs.DeltaFrames
	s.IdleFrames += rs.IdleFrames
	s.Fallbacks += rs.FullFrames
	s.PatchUploads += rs.PatchUploads
	s.UploadFallbacks += rs.UploadFallbacks
}

// RoundStats is one completed round's slice of the accounting, delivered
// through Pipeline.OnRound; Stats is the sum of them.
type RoundStats = telemetry.RoundObservation
