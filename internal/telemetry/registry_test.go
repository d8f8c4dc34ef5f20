package telemetry

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	_ "net/http/pprof"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := reg.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	h := reg.Histogram("h_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("hist count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-105.65) > 1e-9 {
		t.Fatalf("hist sum = %v, want 105.65", got)
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "")
	b := reg.Counter("x_total", "")
	if a != b {
		t.Fatal("re-registering a counter must return the same instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestNilRegistryAndMetrics(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if err := reg.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry Snapshot must be nil")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`fed_frames_total{kind="full"}`, "Frames by kind.").Add(3)
	reg.Counter(`fed_frames_total{kind="delta"}`, "Frames by kind.").Add(7)
	reg.Gauge("fed_workers_live", "Live workers.").Set(2)
	h := reg.Histogram("fed_ack_seconds", "Ack latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE fed_ack_seconds histogram\n",
		`fed_ack_seconds_bucket{le="0.5"} 1` + "\n",
		`fed_ack_seconds_bucket{le="1"} 2` + "\n",
		`fed_ack_seconds_bucket{le="+Inf"} 3` + "\n",
		"fed_ack_seconds_sum 3\n",
		"fed_ack_seconds_count 3\n",
		"# TYPE fed_frames_total counter\n",
		`fed_frames_total{kind="delta"} 7` + "\n",
		`fed_frames_total{kind="full"} 3` + "\n",
		"# TYPE fed_workers_live gauge\n",
		"fed_workers_live 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// One TYPE header per family even with two labeled series.
	if n := strings.Count(out, "# TYPE fed_frames_total"); n != 1 {
		t.Errorf("fed_frames_total TYPE header appears %d times, want 1", n)
	}
	// Labeled series under one family must be adjacent and sorted.
	if strings.Index(out, `kind="delta"`) > strings.Index(out, `kind="full"`) {
		t.Error("labeled series not sorted within family")
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Add(5)
	reg.Gauge("b", "").Set(1.5)
	h := reg.Histogram(`c_seconds{worker="1"}`, "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	snap := reg.Snapshot()
	if snap["a_total"] != 5 {
		t.Errorf("a_total = %v", snap["a_total"])
	}
	if snap["b"] != 1.5 {
		t.Errorf("b = %v", snap["b"])
	}
	if snap[`c_seconds_count{worker="1"}`] != 2 {
		t.Errorf("hist count sample = %v", snap[`c_seconds_count{worker="1"}`])
	}
	if snap[`c_seconds_sum{worker="1"}`] != 2.5 {
		t.Errorf("hist sum sample = %v", snap[`c_seconds_sum{worker="1"}`])
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fed_rounds_total", "Rounds.").Add(12)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "fed_rounds_total 12") {
		t.Errorf("body missing counter:\n%s", sb.String())
	}
}

// TestServeExposesPprofEndpoints pins the one profiling surface of the
// binaries: the -metrics address serves the pprof endpoints beside
// /metrics.
func TestServeExposesPprofEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fed_rounds_total", "Rounds.").Add(3)
	addr, err := reg.Serve("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"/metrics":                  "fed_rounds_total 3",
		"/debug/pprof/heap?debug=1": "heap profile",
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("%s: status %d, body %.80q, want %q in it", path, resp.StatusCode, body, want)
		}
	}
}

func TestServeRejectsBadAddress(t *testing.T) {
	if _, err := NewRegistry().Serve("localhost:-1"); err == nil {
		t.Fatal("expected an error for an invalid address")
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", []float64{1, 2, 3})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 5))
			}
		}()
	}
	// Concurrent scrapes while updating.
	for i := 0; i < 10; i++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000 (CAS add lost updates)", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("hist count = %d, want 8000", h.Count())
	}
}
