// Package telemetry is the observability layer: a zero-dependency metrics
// registry (atomic counters, gauges, fixed-bucket histograms) with a
// Prometheus text-exposition /metrics handler, a structured trace recorder
// that exports Chrome trace-event JSON loadable in Perfetto, and a
// structured key=value logger — all nil-safe, so instrumented code paths
// pay nothing when telemetry is off.
//
// Everything here is opt-in and observation-only: no instrumentation point
// draws randomness or feeds back into computation, so deterministic outputs
// (accuracy matrices, wire bytes) are bit-identical with telemetry on or
// off. Every method on every type tolerates a nil receiver — the hot paths
// in transport and fl call straight into a possibly-nil *Sink without
// branching, and the nil fast path allocates nothing (gated by
// AllocsPerRun tests, like the wire pools).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; all methods are nil-safe no-ops.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (callers keep counters monotonic; Add never checks).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down, stored as atomic bits.
// The zero value is ready; all methods are nil-safe no-ops.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d with a CAS loop (atomic float add).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound (plus an implicit +Inf bucket), a running sum and a total count,
// all updated atomically with no allocation per Observe. Buckets are fixed
// at construction; Prometheus exposition emits them cumulatively.
type Histogram struct {
	upper  []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// newHistogram validates and copies the bucket bounds.
func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one sample. Nil-safe; allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v (le is inclusive); beyond the
	// last bound lands in the +Inf bucket.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reads the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefSecondsBuckets covers latencies from 1ms to 10s — round dispatch,
// ack latency, checkpoint writes.
var DefSecondsBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// metricKind discriminates the exposition TYPE of a registered series.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered time series: a base metric name, an optional
// raw label block, and the typed value.
type series struct {
	base   string // metric family name
	labels string // label block without braces, "" when unlabeled
	help   string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration methods are idempotent: asking for an
// already-registered name returns the existing metric, so instrumentation
// sites can register lazily. A nil *Registry is valid everywhere and
// returns nil metrics, whose methods no-op — the off switch costs one nil
// check per call.
//
// Names may carry a Prometheus label block — e.g.
// `fed_frames_total{kind="full"}` — and series sharing a base name are
// grouped under one HELP/TYPE header at exposition.
type Registry struct {
	mu sync.Mutex
	m  map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]*series)} }

// splitName separates a metric name from its optional {label} block.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// register returns the series for name, creating it with the given kind.
// Asking for an existing name with a different kind panics: that is a
// programming error, not a runtime condition.
func (r *Registry) register(name, help string, kind metricKind) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.m[name]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, s.kind, kind))
		}
		return s
	}
	base, labels := splitName(name)
	s := &series{base: base, labels: labels, help: help, kind: kind}
	r.m[name] = s
	return s
}

// Counter registers (or fetches) a counter. Nil-safe: a nil registry
// returns a nil counter whose methods no-op.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	s := r.register(name, help, kindCounter)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or fetches) a gauge, nil-safe like Counter.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.register(name, help, kindGauge)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram registers (or fetches) a fixed-bucket histogram, nil-safe like
// Counter. Buckets are fixed by the first registration of the name.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	s := r.register(name, help, kindHistogram)
	if s.h == nil {
		s.h = newHistogram(buckets)
	}
	return s.h
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabels joins a base name, an optional label block, and an optional
// extra label (the histogram le).
func withLabels(base, labels, extra string) string {
	if labels == "" && extra == "" {
		return base
	}
	switch {
	case labels == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + labels + "}"
	default:
		return base + "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus renders every registered series in the text exposition
// format (version 0.0.4): series sorted by name, one HELP/TYPE header per
// metric family, histogram buckets cumulative with the implicit +Inf.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.m))
	all := make(map[string]*series, len(r.m))
	for name, s := range r.m {
		names = append(names, name)
		all[name] = s
	}
	r.mu.Unlock()
	sort.Slice(names, func(i, j int) bool {
		si, sj := all[names[i]], all[names[j]]
		if si.base != sj.base {
			return si.base < sj.base
		}
		return si.labels < sj.labels
	})

	var b strings.Builder
	lastBase := ""
	for _, name := range names {
		s := all[name]
		if s.base != lastBase {
			lastBase = s.base
			if s.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.base, s.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.base, s.kind)
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", withLabels(s.base, s.labels, ""), s.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", withLabels(s.base, s.labels, ""), fmtFloat(s.g.Value()))
		case kindHistogram:
			cum := int64(0)
			for i, ub := range s.h.upper {
				cum += s.h.counts[i].Load()
				fmt.Fprintf(&b, "%s %d\n", withLabels(s.base+"_bucket", s.labels, `le="`+fmtFloat(ub)+`"`), cum)
			}
			fmt.Fprintf(&b, "%s %d\n", withLabels(s.base+"_bucket", s.labels, `le="+Inf"`), s.h.Count())
			fmt.Fprintf(&b, "%s %s\n", withLabels(s.base+"_sum", s.labels, ""), fmtFloat(s.h.Sum()))
			fmt.Fprintf(&b, "%s %d\n", withLabels(s.base+"_count", s.labels, ""), s.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns the current sample values keyed by full series name.
// Histograms contribute their <name>_count and <name>_sum samples. Tests
// and reconciliation checks read this instead of parsing the exposition.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.m))
	for name, s := range r.m {
		switch s.kind {
		case kindCounter:
			out[name] = float64(s.c.Value())
		case kindGauge:
			out[name] = s.g.Value()
		case kindHistogram:
			out[withLabels(s.base+"_count", s.labels, "")] = float64(s.h.Count())
			out[withLabels(s.base+"_sum", s.labels, "")] = s.h.Sum()
		}
	}
	return out
}

// Handler returns the /metrics HTTP handler for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Serve binds addr and serves /metrics (plus the process's
// /debug/pprof endpoints via http.DefaultServeMux, where a binary that
// imports net/http/pprof has them registered, so one address covers both)
// in a background goroutine for the life of the process. It returns the
// bound address, useful with ephemeral ports ("127.0.0.1:0").
func (r *Registry) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/", http.DefaultServeMux)
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}
