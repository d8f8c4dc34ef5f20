// Telemetry acceptance gates for the transport layer: the RoundStats
// wall-clock timing fields must obey their defining inequalities on a real
// loopback federation with genuinely slow workers, and a /metrics registry
// attached to a run must reconcile exactly with the transport's own
// cumulative Stats — the counters are the wire accounting, not an
// approximation of it.
package transport_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/fl/transport"
	"reffil/internal/telemetry"
)

// TestRoundStatsTiming pins the RoundStats wall-clock fields with bounded
// inequalities rather than exact values: on a run where every worker really
// sleeps before each ack, dispatch takes time, the first ack cannot arrive
// before the sleep has elapsed, and acks are ordered.
func TestRoundStatsTiming(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:1]
	const sleep = 50 * time.Millisecond

	var mu sync.Mutex
	var rounds []transport.RoundStats
	runTCPWith(t, "RefFiL", family, domains, tcpRun{
		workers:  2,
		ackDelay: sleep,
		onRound: func(rs transport.RoundStats) {
			mu.Lock()
			rounds = append(rounds, rs)
			mu.Unlock()
		},
	})
	if len(rounds) == 0 {
		t.Fatal("no RoundStats observed")
	}
	for _, rs := range rounds {
		if rs.DispatchNanos <= 0 {
			t.Errorf("task %d round %d: DispatchNanos %d, want > 0", rs.Task, rs.Round, rs.DispatchNanos)
		}
		if got := time.Duration(rs.FirstAckNanos); got < sleep {
			t.Errorf("task %d round %d: FirstAckNanos %v, want >= ack delay %v", rs.Task, rs.Round, got, sleep)
		}
		if rs.FirstAckNanos > rs.LastAckNanos {
			t.Errorf("task %d round %d: FirstAckNanos %d > LastAckNanos %d", rs.Task, rs.Round, rs.FirstAckNanos, rs.LastAckNanos)
		}
	}
}

// TestTelemetryReconcilesWithStats is the /metrics acceptance gate: after
// an instrumented run, the registry's counters must equal the transport's
// own cumulative Stats field for field — rounds, socket bytes both ways,
// frame kinds, upload kinds, and fallbacks — and the trace file must be
// strictly valid JSON containing the round spans.
func TestTelemetryReconcilesWithStats(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:1]

	reg := telemetry.NewRegistry()
	tracePath := filepath.Join(t.TempDir(), "run.trace")
	trc, err := telemetry.CreateTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink(reg, trc)

	_, stats := runTCPWith(t, "RefFiL", family, domains, tcpRun{workers: 2, sink: sink})
	sink.Close()

	snap := reg.Snapshot()
	want := map[string]int64{
		"fed_rounds_total":                stats.Rounds,
		"fed_broadcast_bytes_total":       stats.BroadcastBytes,
		"fed_upload_bytes_total":          stats.UploadBytes,
		`fed_frames_total{kind="full"}`:   stats.FullFrames,
		`fed_frames_total{kind="delta"}`:  stats.DeltaFrames,
		`fed_frames_total{kind="idle"}`:   stats.IdleFrames,
		`fed_uploads_total{kind="patch"}`: stats.PatchUploads,
		"fed_frame_fallbacks_total":       stats.Fallbacks,
		"fed_upload_fallbacks_total":      stats.UploadFallbacks,
	}
	for name, exp := range want {
		if got := int64(snap[name]); got != exp {
			t.Errorf("%s = %d, want %d (transport.Stats)", name, got, exp)
		}
	}
	if stats.Rounds == 0 || stats.BroadcastBytes == 0 {
		t.Fatalf("degenerate run: %d rounds, %d broadcast bytes", stats.Rounds, stats.BroadcastBytes)
	}
	if got := int64(snap["fed_installs_total"]); got != stats.Rounds {
		t.Errorf("fed_installs_total = %d, want one install per round (%d)", got, stats.Rounds)
	}
	if got := int64(snap["fed_worker_joins_total"]); got != 2 {
		t.Errorf("fed_worker_joins_total = %d, want 2", got)
	}
	if got := int64(snap["fed_round_last_ack_seconds_count"]); got != stats.Rounds {
		t.Errorf("fed_round_last_ack_seconds_count = %d, want %d observations", got, stats.Rounds)
	}

	// The closed trace must be strictly valid JSON (Perfetto-loadable) and
	// contain one span per completed round on the rounds track.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	roundSpans := 0
	for _, ev := range events {
		if ev["ph"] == "X" {
			if name, ok := ev["name"].(string); ok && strings.HasPrefix(name, "task ") {
				roundSpans++
			}
		}
	}
	if int64(roundSpans) != stats.Rounds {
		t.Errorf("trace has %d round spans, want %d", roundSpans, stats.Rounds)
	}
}
