package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestLoggerEventFormat(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, F("run", "abc123"), F("role", "fedserver"))
	log.Event("wire_round", F("task", 0), F("round", 3), F("bytes", int64(1024)), F("ratio", 0.5), F("ok", true))

	got := buf.String()
	want := "evt=wire_round run=abc123 role=fedserver task=0 round=3 bytes=1024 ratio=0.5 ok=true\n"
	if got != want {
		t.Fatalf("log line = %q, want %q", got, want)
	}
}

func TestLoggerQuotesAwkwardStrings(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf)
	log.Event("dial", F("err", "connection refused"), F("empty", ""), F("eq", "a=b"))
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
	log := NewLogger(&lbuf, F("run", "r1"))
	log.Tracer = tr
	log.Event("rejoin", F("slot", 1))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	evs := parseTrace(t, tbuf.Bytes())
	found := false
	for _, e := range evs {
		if e.Ph == "i" && e.Name == "rejoin" {
			found = true
			if e.Args["slot"] != 1.0 || e.Args["run"] != "r1" {
				t.Errorf("trace args = %v", e.Args)
			}
		}
	}
	if !found {
		t.Fatal("log event not mirrored into trace")
	}
}

func TestNilLogger(t *testing.T) {
	var log *Logger
	log.Event("anything", F("k", "v"))
}

func TestLoggerConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf)
	var wg sync.WaitGroup
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				log.Event("tick", F("w", w), F("i", i))
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
