package telemetry

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// TestLoggerEventFormat pins the commands' stdout line: evt first, then the
// bound attrs, then the event's own, as bare key=value pairs.
func TestLoggerEventFormat(t *testing.T) {
	var buf bytes.Buffer
	log := newLogger(&buf, nil).With("run", "abc123", "role", "fedserver")
	log.Info("wire_round", "task", 0, "round", 3, "bytes", int64(1024), "ratio", 0.5, "ok", true)

	got := buf.String()
	want := "evt=wire_round run=abc123 role=fedserver task=0 round=3 bytes=1024 ratio=0.5 ok=true\n"
	if got != want {
		t.Fatalf("log line = %q, want %q", got, want)
	}
}

func TestLoggerQuotesAwkwardStrings(t *testing.T) {
	var buf bytes.Buffer
	log := newLogger(&buf, nil)
	log.Info("dial", "err", "connection refused", "empty", "", "eq", "a=b")
	got := buf.String()
	if !strings.Contains(got, `err="connection refused"`) ||
		!strings.Contains(got, `empty=""`) ||
		!strings.Contains(got, `eq="a=b"`) {
		t.Fatalf("quoting wrong: %q", got)
	}
}

func TestLoggerMirrorsIntoTrace(t *testing.T) {
	var lbuf, tbuf bytes.Buffer
	tr := NewTracer(&tbuf)
	log := newLogger(&lbuf, tr).With("run", "r1")
	log.Info("rejoin", "slot", 1)
	log.WithGroup("peer").Info("dial_retry", "error", "bad\ahello\xff")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if want := "evt=rejoin run=r1 slot=1\n"; !strings.HasPrefix(lbuf.String(), want) {
		t.Errorf("log = %q, want it to start %q", lbuf.String(), want)
	}
	mirrored := map[string]map[string]any{}
	for _, e := range parseTrace(t, tbuf.Bytes()) {
		if e.Ph == "i" {
			mirrored[e.Name] = e.Args
		}
	}
	if a := mirrored["rejoin"]; a == nil || a["slot"] != 1.0 || a["run"] != "r1" {
		t.Errorf("rejoin trace args = %v", a)
	}
	if a := mirrored["dial_retry"]; a == nil || a["run"] != "r1" || a["peer.error"] != "bad\ahello\uFFFD" {
		t.Errorf("dial_retry trace args = %v", a)
	}
}

// TestLoggerWithTracingOff holds the untraced logger to the bare
// TextHandler: nothing wraps it when there is no trace to mirror into.
func TestLoggerWithTracingOff(t *testing.T) {
	var buf bytes.Buffer
	log := newLogger(&buf, nil)
	if _, ok := log.Handler().(*slog.TextHandler); !ok {
		t.Fatalf("untraced handler = %T, want *slog.TextHandler", log.Handler())
	}
	log.Info("anything", "k", "v")
	if got, want := buf.String(), "evt=anything k=v\n"; got != want {
		t.Fatalf("log line = %q, want %q", got, want)
	}
}

func TestLoggerConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	log := newLogger(&buf, nil)
	var wg sync.WaitGroup
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				log.Info("tick", "w", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "evt=tick w=") {
			t.Fatalf("interleaved line: %q", ln)
		}
	}
}
