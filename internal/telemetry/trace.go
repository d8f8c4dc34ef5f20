package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"time"
)

// Tracer records structured lifecycle events as Chrome trace-event JSON —
// one event object per line — loadable directly in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Tracks (named with the
// process_name metadata event) group related rows: the "rounds" track uses
// tid=round, one row per round.
//
// The format is the JSON Array variant of the trace-event spec: a `[`
// header, then one complete event per line with a trailing comma. Close
// writes a terminator that makes the file strictly valid JSON; viewers
// also accept a truncated file (crash-safe), since the array format
// tolerates a missing `]`.
//
// All methods are nil-safe no-ops. Tracing is opt-in and allocates per
// event; the hot-path alloc guarantees apply to metrics and the nil path,
// not to an enabled tracer.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer
	t0     time.Time
	pids   map[string]int
	closed bool
}

// Arg is one key/value attached to a trace event, rendered into the
// event's "args" object. A string, int, int64, uint64, float64 or bool Val
// keeps its JSON type (a NaN or infinite float is written as its string);
// any other Val is written as its fmt.Sprint text.
type Arg struct {
	Key string
	Val any
}

// NewTracer wraps w in a Tracer and writes the array header. If w is also
// an io.Closer, Close closes it.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{
		w:    bufio.NewWriter(w),
		t0:   time.Now(),
		pids: make(map[string]int),
	}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	t.w.WriteString("[\n")
	return t
}

// CreateTrace creates path and returns a Tracer writing to it.
func CreateTrace(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return NewTracer(f), nil
}

// chromeEvent is one trace event, its fields in the trace-event spec's
// order; encoding/json renders it, so every string is JSON-quoted.
type chromeEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

// jsonVal returns an arg value encoding/json renders: strings, booleans
// and finite numbers as themselves, a non-finite float as its string
// ("NaN", "+Inf"), anything else as fmt.Sprint's text.
func jsonVal(v any) any {
	switch x := v.(type) {
	case string, bool, int, int64, uint64:
		return x
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return strconv.FormatFloat(x, 'g', -1, 64)
		}
		return x
	default:
		return fmt.Sprint(x)
	}
}

// argMap renders args as an event's "args" object.
func argMap(args []Arg) map[string]any {
	m := make(map[string]any, len(args))
	for _, a := range args {
		m[a.Key] = jsonVal(a.Val)
	}
	return m
}

// write renders ev as one line followed by end. Caller holds mu.
func (t *Tracer) write(ev chromeEvent, end string) {
	b, err := json.Marshal(ev)
	if err != nil { // unreachable: every value is a string, bool or finite number
		return
	}
	t.w.Write(b)
	t.w.WriteString(end)
}

// pid returns the synthetic process id for a track, emitting the
// process_name metadata event on first use. Caller holds mu.
func (t *Tracer) pid(track string) int {
	if p, ok := t.pids[track]; ok {
		return p
	}
	p := len(t.pids) + 1
	t.pids[track] = p
	t.write(chromeEvent{Ph: "M", Pid: p, Name: "process_name", Args: map[string]any{"name": track}}, ",\n")
	return p
}

// add writes one event line at the offset of at (the zero time meaning
// now) from the tracer's start: a no-op on a nil or closed tracer.
func (t *Tracer) add(ph, track string, tid int64, name string, at time.Time, dur time.Duration, args []Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	ev := chromeEvent{Ph: ph, Pid: t.pid(track), Tid: tid, Ts: at.Sub(t.t0).Microseconds(), Name: name, Args: argMap(args)}
	switch ph {
	case "X":
		d := dur.Microseconds()
		ev.Dur = &d
	case "i":
		ev.S = "t"
	}
	t.write(ev, ",\n")
}

// Span records a complete duration event ("X") on track/tid covering
// [start, start+dur).
func (t *Tracer) Span(track string, tid int64, name string, start time.Time, dur time.Duration, args ...Arg) {
	t.add("X", track, tid, name, start, dur, args)
}

// Instant records a point-in-time event ("i", thread-scoped) at now.
func (t *Tracer) Instant(track string, tid int64, name string, args ...Arg) {
	t.add("i", track, tid, name, time.Time{}, 0, args)
}

// Value records a counter sample ("C") — Perfetto renders these as a
// stepped value graph on the track.
func (t *Tracer) Value(track, name string, v float64) {
	t.add("C", track, 0, name, time.Time{}, 0, []Arg{{Key: "value", Val: v}})
}

// Meta records a named metadata instant on the "meta" track — the run
// manifest goes through here so the trace file is self-describing.
func (t *Tracer) Meta(name string, args ...Arg) {
	t.add("i", "meta", 0, name, time.Time{}, 0, args)
}

// Close terminates the JSON array, flushes, and closes the underlying
// file if the Tracer owns one. Safe to call twice and on nil.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	// The spec's array-of-events form allows a dangling comma before the
	// closing bracket in every consumer we target, but end on a metadata
	// event so the file is also strictly valid JSON.
	t.write(chromeEvent{Ph: "M", Name: "trace_end", Args: map[string]any{}}, "\n]\n")
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
