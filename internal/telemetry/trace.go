package telemetry

import (
	"bufio"
	"fmt"
	"io"
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
	buf    []byte
	pids   map[string]int
	closed bool
}

// Arg is one key/value attached to a trace event, rendered into the
// event's "args" object. Val may be a string, integer, float or bool.
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

// pid returns the synthetic process id for a track, emitting the
// process_name metadata event on first use. Caller holds mu.
func (t *Tracer) pid(track string) int {
	if p, ok := t.pids[track]; ok {
		return p
	}
	p := len(t.pids) + 1
	t.pids[track] = p
	b := t.buf[:0]
	b = append(b, `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(p), 10)
	b = append(b, `,"name":"process_name","args":{"name":`...)
	b = strconv.AppendQuote(b, track)
	b = append(b, "}},\n"...)
	t.w.Write(b)
	t.buf = b
	return p
}

// appendArgs renders an args object (possibly empty) into b.
func appendArgs(b []byte, args []Arg) []byte {
	b = append(b, `,"args":{`...)
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, a.Key)
		b = append(b, ':')
		switch v := a.Val.(type) {
		case string:
			b = strconv.AppendQuote(b, v)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case float64:
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		case bool:
			b = strconv.AppendBool(b, v)
		default:
			b = strconv.AppendQuote(b, fmt.Sprint(v))
		}
	}
	return append(b, '}')
}

// event writes one complete trace event line. Caller holds mu.
func (t *Tracer) event(ph byte, track string, tid int64, name string, tsMicros, durMicros int64, args []Arg) {
	p := t.pid(track)
	b := t.buf[:0]
	b = append(b, `{"ph":"`...)
	b = append(b, ph)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(p), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, tsMicros, 10)
	if ph == 'X' {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, durMicros, 10)
	}
	if ph == 'i' {
		b = append(b, `,"s":"t"`...)
	}
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, name)
	b = appendArgs(b, args)
	b = append(b, "},\n"...)
	t.w.Write(b)
	t.buf = b
}

// micros converts a wall-clock instant to the trace timebase.
func (t *Tracer) micros(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

// Span records a complete duration event ("X") on track/tid covering
// [start, start+dur).
func (t *Tracer) Span(track string, tid int64, name string, start time.Time, dur time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.closed {
		t.event('X', track, tid, name, t.micros(start), dur.Microseconds(), args)
	}
	t.mu.Unlock()
}

// Instant records a point-in-time event ("i", thread-scoped) at now.
func (t *Tracer) Instant(track string, tid int64, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.closed {
		t.event('i', track, tid, name, t.micros(time.Now()), 0, args)
	}
	t.mu.Unlock()
}

// Value records a counter sample ("C") — Perfetto renders these as a
// stepped value graph on the track.
func (t *Tracer) Value(track, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.closed {
		t.event('C', track, 0, name, t.micros(time.Now()), 0, []Arg{{Key: "value", Val: v}})
	}
	t.mu.Unlock()
}

// Meta records a named metadata instant on the "meta" track — the run
// manifest goes through here so the trace file is self-describing.
func (t *Tracer) Meta(name string, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.closed {
		t.event('i', "meta", 0, name, t.micros(time.Now()), 0, args)
	}
	t.mu.Unlock()
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
	// closing bracket in every consumer we target, but emit a final
	// metadata event so the file is also strictly valid JSON.
	t.w.WriteString(`{"ph":"M","pid":0,"name":"trace_end","args":{}}` + "\n]\n")
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
