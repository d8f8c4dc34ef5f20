package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Field is one key/value pair on a structured log line.
type Field struct {
	Key string
	Val any
}

// F builds a Field — shorthand for call sites.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// Logger emits single-line structured events as space-separated key=value
// pairs — `evt=wire_round run=9a2f task=0 round=3 ...` — replacing the
// CLIs' ad-hoc printf wire/heartbeat lines. Bound fields (run ID, role,
// worker slot) prefix every event. When Tracer is set, each event is
// mirrored as an instant on the "log" trace track, so the log stream and
// the lifecycle trace share one timeline.
//
// A nil *Logger no-ops on every method.
type Logger struct {
	mu     sync.Mutex
	w      io.Writer
	bound  []Field
	Tracer *Tracer
}

// NewLogger builds a Logger writing to w with the given bound fields.
func NewLogger(w io.Writer, bound ...Field) *Logger {
	return &Logger{w: w, bound: bound}
}

// appendVal renders a field value; strings needing quoting get %q.
func appendVal(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		if strings.ContainsAny(x, " \t\n\"=") || x == "" {
			return strconv.AppendQuote(b, x)
		}
		return append(b, x...)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(b, x)
	case error:
		return strconv.AppendQuote(b, x.Error())
	default:
		return appendVal(b, fmt.Sprint(x))
	}
}

// Event writes one log line for the named event with the bound fields
// first, then the per-event fields, and mirrors it into the trace.
func (l *Logger) Event(event string, fields ...Field) {
	if l == nil {
		return
	}
	b := make([]byte, 0, 128)
	b = append(b, "evt="...)
	b = append(b, event...)
	for _, f := range l.bound {
		b = append(b, ' ')
		b = append(b, f.Key...)
		b = append(b, '=')
		b = appendVal(b, f.Val)
	}
	for _, f := range fields {
		b = append(b, ' ')
		b = append(b, f.Key...)
		b = append(b, '=')
		b = appendVal(b, f.Val)
	}
	b = append(b, '\n')
	l.mu.Lock()
	l.w.Write(b)
	l.mu.Unlock()

	if l.Tracer != nil {
		args := make([]Arg, 0, len(l.bound)+len(fields))
		for _, f := range l.bound {
			args = append(args, Arg{Key: f.Key, Val: f.Val})
		}
		for _, f := range fields {
			args = append(args, Arg{Key: f.Key, Val: f.Val})
		}
		l.Tracer.Instant("log", 0, event, args...)
	}
}
