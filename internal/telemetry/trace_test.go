package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// traceEvent mirrors the fields the trace viewer cares about.
type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

func parseTrace(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var evs []traceEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace is not valid JSON after Close: %v\n---\n%s", err, data)
	}
	return evs
}

func TestTracerProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	start := time.Now()
	tr.Span("rounds", 3, "task 0 round 3", start, 40*time.Millisecond,
		Arg{Key: "task", Val: 0}, Arg{Key: "first_ack_ms", Val: 0.25})
	tr.Instant("membership", 1, "join", Arg{Key: "slot", Val: 1})
	tr.Value("membership", "workers_live", 2)
	tr.Meta("manifest", Arg{Key: "method", Val: "reffil"}, Arg{Key: "seed", Val: int64(7)})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	evs := parseTrace(t, buf.Bytes())

	var span, inst, cnt, meta *traceEvent
	for i := range evs {
		switch {
		case evs[i].Ph == "X" && evs[i].Name == "task 0 round 3":
			span = &evs[i]
		case evs[i].Ph == "i" && evs[i].Name == "join":
			inst = &evs[i]
		case evs[i].Ph == "C" && evs[i].Name == "workers_live":
			cnt = &evs[i]
		case evs[i].Ph == "i" && evs[i].Name == "manifest":
			meta = &evs[i]
		}
	}
	if span == nil || inst == nil || cnt == nil || meta == nil {
		t.Fatalf("missing events: span=%v inst=%v cnt=%v meta=%v", span, inst, cnt, meta)
	}
	if span.Tid != 3 {
		t.Errorf("round span tid = %d, want round number 3", span.Tid)
	}
	if span.Dur != 40000 {
		t.Errorf("span dur = %d micros, want 40000", span.Dur)
	}
	if span.Args["first_ack_ms"] != 0.25 {
		t.Errorf("span args = %v", span.Args)
	}
	if cnt.Args["value"] != 2.0 {
		t.Errorf("counter args = %v", cnt.Args)
	}
	if meta.Args["method"] != "reffil" {
		t.Errorf("manifest args = %v", meta.Args)
	}
}

// TestTracerQuotesHostileStrings holds the trace to strict JSON whatever
// its strings and floats hold: a control byte, DEL and a byte that is not
// UTF-8 in a track, a name and a string arg, and NaN and +Inf args. A
// logged error can carry such bytes from a peer.
func TestTracerQuotesHostileStrings(t *testing.T) {
	const hostile = "bell\a del\x7f bad\xff"
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Span(hostile, 1, hostile, time.Now(), time.Millisecond,
		Arg{Key: "error", Val: hostile}, Arg{Key: "nan", Val: math.NaN()}, Arg{Key: "inf", Val: math.Inf(1)})
	tr.Instant(hostile, 0, hostile, Arg{Key: hostile, Val: hostile}, Arg{Key: "inf", Val: math.Inf(1)})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "bell\a del\x7f bad\uFFFD"
	var span, inst bool
	for _, e := range parseTrace(t, buf.Bytes()) {
		switch {
		case e.Ph == "X" && e.Name == want:
			span = e.Args["error"] == want && e.Args["nan"] == "NaN" && e.Args["inf"] == "+Inf"
		case e.Ph == "i" && e.Name == want:
			inst = e.Args[want] == want && e.Args["inf"] == "+Inf"
		case e.Ph == "M" && e.Name == "process_name" && e.Args["name"] != want:
			t.Errorf("track named %q, want %q", e.Args["name"], want)
		}
	}
	if !span || !inst {
		t.Fatalf("span decoded %v, instant decoded %v:\n%s", span, inst, buf.Bytes())
	}
}

func TestTracerNamesTracks(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Instant("alpha", 0, "a")
	tr.Instant("beta", 0, "b")
	tr.Instant("alpha", 0, "c")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	evs := parseTrace(t, buf.Bytes())

	// Each track gets exactly one process_name metadata event, and events
	// on the same track share a pid.
	names := map[string]int{} // track name -> pid
	for _, e := range evs {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.Args["name"].(string)] = e.Pid
		}
	}
	if len(names) != 3 { // alpha, beta, trace_end's pid 0 is unnamed; meta track not used
		if _, ok := names["alpha"]; !ok {
			t.Fatalf("track names = %v", names)
		}
	}
	var alphaPids []int
	for _, e := range evs {
		if e.Ph == "i" && (e.Name == "a" || e.Name == "c") {
			alphaPids = append(alphaPids, e.Pid)
		}
	}
	if len(alphaPids) != 2 || alphaPids[0] != alphaPids[1] || alphaPids[0] != names["alpha"] {
		t.Errorf("alpha events pids = %v, track pid = %d", alphaPids, names["alpha"])
	}
}

func TestTracerOneEventPerLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Instant("x", 0, "one")
	tr.Instant("x", 0, "two")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Every line between header and terminator is one complete JSON object
	// (modulo the trailing comma) — the JSONL property that makes partial
	// traces greppable.
	for _, ln := range lines[1 : len(lines)-1] {
		ln = strings.TrimSuffix(ln, ",")
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line is not standalone JSON: %q (%v)", ln, err)
		}
	}
}

func TestTracerCloseIdempotentAndNil(t *testing.T) {
	var tr *Tracer
	tr.Span("x", 0, "n", time.Now(), time.Second)
	tr.Instant("x", 0, "n")
	tr.Value("x", "n", 1)
	tr.Meta("n")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tr2 := NewTracer(&buf)
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	tr2.Instant("x", 0, "after close") // must not write
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Error("writes after Close changed the file")
	}
}
