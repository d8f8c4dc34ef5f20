package telemetry

import (
	"context"
	"io"
	"log/slog"
	"slices"
)

// newLogger builds the commands' structured logger: a log/slog TextHandler
// writing one `evt=<event> key=value ...` line per record to w — the time
// and level dropped, the message keyed evt — with bound attrs (slog's With)
// after evt and the record's own attrs last. When tr is non-nil each record
// is also mirrored as an instant on the trace's "log" track, so the log
// stream and the lifecycle trace share one timeline.
func newLogger(w io.Writer, tr *Tracer) *slog.Logger {
	var h slog.Handler = slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 {
				switch a.Key {
				case slog.TimeKey, slog.LevelKey:
					return slog.Attr{}
				case slog.MessageKey:
					a.Key = "evt"
				}
			}
			return a
		},
	})
	if tr != nil {
		h = &mirror{Handler: h, tracer: tr}
	}
	return slog.New(h)
}

// mirror wraps the text handler and copies each record into the trace,
// bound attrs first; a group qualifies its keys as "group.key".
type mirror struct {
	slog.Handler
	tracer *Tracer
	bound  []Arg
	group  string
}

func (h *mirror) Handle(ctx context.Context, r slog.Record) error {
	err := h.Handler.Handle(ctx, r)
	args := slices.Clip(h.bound)
	r.Attrs(func(a slog.Attr) bool {
		args = append(args, h.arg(a))
		return true
	})
	h.tracer.Instant("log", 0, r.Message, args...)
	return err
}

func (h *mirror) WithAttrs(as []slog.Attr) slog.Handler {
	bound := slices.Clip(h.bound)
	for _, a := range as {
		bound = append(bound, h.arg(a))
	}
	return &mirror{Handler: h.Handler.WithAttrs(as), tracer: h.tracer, bound: bound, group: h.group}
}

func (h *mirror) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return &mirror{Handler: h.Handler.WithGroup(name), tracer: h.tracer, bound: h.bound, group: h.group + name + "."}
}

func (h *mirror) arg(a slog.Attr) Arg {
	return Arg{Key: h.group + a.Key, Val: a.Value.Resolve().Any()}
}
