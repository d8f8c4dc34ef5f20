package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSinkRecordsRoundObservation(t *testing.T) {
	reg := NewRegistry()
	s := NewSink(reg, nil)
	s.ObserveRound(RoundObservation{
		Task: 0, Round: 1, Attempts: 1, Start: time.Now(),
		DispatchNanos: 2e6, FirstAckNanos: 5e6, LastAckNanos: 9e6,
		FullFrames: 2, DeltaFrames: 1,
		PatchUploads: 3, UploadFallbacks: 1,
		BroadcastBytes: 1000, UploadBytes: 500,
	})
	s.ObserveRound(RoundObservation{
		Task: 0, Round: 2, Attempts: 2, Start: time.Now(),
		LastAckNanos: 8e6,
		DeltaFrames:  3, PatchUploads: 3,
		BroadcastBytes: 800, UploadBytes: 400,
	})

	snap := reg.Snapshot()
	checks := map[string]float64{
		"fed_rounds_total":                 2,
		"fed_round_attempts_total":         3,
		"fed_broadcast_bytes_total":        1800, // the rounds' sum
		"fed_upload_bytes_total":           900,
		`fed_frames_total{kind="full"}`:    2,
		`fed_frames_total{kind="delta"}`:   4,
		`fed_uploads_total{kind="patch"}`:  6,
		"fed_upload_fallbacks_total":       1,
		"fed_round_last_ack_seconds_count": 2,
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSinkPerWorkerAckHistograms(t *testing.T) {
	reg := NewRegistry()
	s := NewSink(reg, nil)
	s.ObserveAck(0, 10*time.Millisecond)
	s.ObserveAck(0, 20*time.Millisecond)
	s.ObserveAck(3, 5*time.Millisecond)

	snap := reg.Snapshot()
	if got := snap[`fed_ack_latency_seconds_count{worker="0"}`]; got != 2 {
		t.Errorf("worker 0 ack count = %v, want 2", got)
	}
	if got := snap[`fed_ack_latency_seconds_count{worker="3"}`]; got != 1 {
		t.Errorf("worker 3 ack count = %v, want 1", got)
	}
}

func TestSinkMembership(t *testing.T) {
	reg := NewRegistry()
	s := NewSink(reg, nil)
	s.WorkerJoined(0, 100, 1)
	s.WorkerJoined(1, 101, 2)
	s.WorkerDead(1)
	s.SetLiveWorkers(1)
	s.WedgeDetected(1)
	s.Requeued(0, 2, 3)

	snap := reg.Snapshot()
	checks := map[string]float64{
		"fed_worker_joins_total":  2,
		"fed_worker_deaths_total": 1,
		"fed_workers_live":        1,
		"fed_worker_wedges_total": 1,
		"fed_requeued_jobs_total": 3,
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSinkInstallCheckpointWorker(t *testing.T) {
	reg := NewRegistry()
	s := NewSink(reg, nil)
	s.Installed(0, 1, 4, 10, 2, 3*time.Millisecond)
	s.CheckpointWritten(0, 1, 2048, 5*time.Millisecond)
	s.WorkerRound(0, 1, 3, 7*time.Millisecond)

	snap := reg.Snapshot()
	checks := map[string]float64{
		"fed_folds_total":                4,
		"fed_fold_unanimous_keys_total":  10,
		"fed_fold_broken_keys_total":     2,
		"fed_installs_total":             1,
		"fed_install_seconds_count":      1,
		"fed_checkpoint_total":           1,
		"fed_checkpoint_bytes_total":     2048,
		"fed_checkpoint_seconds_count":   1,
		"fed_worker_rounds_total":        1,
		"fed_worker_jobs_total":          3,
		"fed_worker_round_seconds_count": 1,
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSinkManifestExposition(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	s := NewSink(reg, tr)
	s.StartRun(Manifest{
		RunID: "abc123", Role: "fedserver", Method: "reffil", Dataset: "pacs",
		Seed: 7, Protocol: 7, Start: time.Now(),
		Flags: map[string]string{"rounds": "3", "pipeline": "1"},
	})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `fed_build_info{run_id="abc123",role="fedserver",method="reffil",dataset="pacs",seed="7",protocol="7"} 1`) {
		t.Errorf("build_info gauge missing:\n%s", out)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	evs := parseTrace(t, buf.Bytes())
	var manifest *traceEvent
	for i := range evs {
		if evs[i].Name == "manifest" {
			manifest = &evs[i]
		}
	}
	if manifest == nil {
		t.Fatal("trace header has no manifest event")
	}
	if manifest.Args["flag.pipeline"] != "1" || manifest.Args["method"] != "reffil" {
		t.Errorf("manifest args = %v", manifest.Args)
	}
}

// TestStartFromFlags is the networked mains' start-up: with -metrics and
// -trace empty it starts nothing and returns a nil sink and a logger with
// the run id bound; with both set the manifest reaches the served /metrics
// page and the trace file, and the logger's lines reach the trace too.
func TestStartFromFlags(t *testing.T) {
	m := Manifest{Role: "fedworker", Method: "reffil", Dataset: "pacs", Seed: 7}
	var out bytes.Buffer
	s, log, bound, err := Start(&out, "", "", m)
	if s != nil || bound != "" || err != nil {
		t.Fatalf("disabled start gave (%v, %q, %v), want a nil sink", s, bound, err)
	}
	log.Info("connected")
	if !strings.HasPrefix(out.String(), "evt=connected run=") {
		t.Fatalf("disabled start's logger wrote %q", out.String())
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	s, log, bound, err = Start(&out, "127.0.0.1:0", trace, m)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("round_done", "round", 1)
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), `fed_build_info{run_id="`) ||
		!strings.Contains(string(page), `",role="fedworker",method="reffil",dataset="pacs",seed="7",`) {
		t.Errorf("/metrics has no manifest gauge:\n%s", page)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var manifest, logged bool
	for _, e := range parseTrace(t, raw) {
		manifest = manifest || e.Name == "manifest"
		logged = logged || (e.Name == "round_done" && e.Args["round"] == 1.0 && e.Args["run"] != nil)
	}
	if !manifest || !logged {
		t.Errorf("trace file lacks the manifest (%v) or the mirrored log line (%v):\n%s", manifest, logged, raw)
	}
}

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	s.StartRun(Manifest{})
	s.ObserveRound(RoundObservation{})
	s.ObserveAck(0, time.Second)
	s.WorkerJoined(0, 0, 1)
	s.WorkerDead(0)
	s.SetLiveWorkers(1)
	s.WedgeDetected(0)
	s.Requeued(0, 0, 1)
	s.Installed(0, 0, 1, 1, 0, time.Second)
	s.CheckpointWritten(0, 0, 1, time.Second)
	s.WorkerRound(0, 0, 1, time.Second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRunIDStable(t *testing.T) {
	at := time.Unix(1754600000, 12345)
	a := NewRunID(7, at)
	b := NewRunID(7, at)
	if a != b {
		t.Fatalf("run id not deterministic: %s vs %s", a, b)
	}
	if c := NewRunID(8, at); c == a {
		t.Fatalf("different seeds collided: %s", c)
	}
}
