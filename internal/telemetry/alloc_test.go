package telemetry

import (
	"runtime"
	"testing"
	"time"
)

// TestNilSinkAllocs pins the off switch: every Sink method called through
// a nil receiver — the state of all instrumented hot paths when telemetry
// is disabled — must allocate nothing.
func TestNilSinkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	var s *Sink
	obs := RoundObservation{Task: 1, Round: 2, LastAckNanos: 1e6}
	fn := func() {
		s.ObserveRound(obs)
		s.ObserveAck(0, time.Millisecond)
		s.WorkerJoined(0, 1, 2)
		s.WorkerDead(0)
		s.SetLiveWorkers(2)
		s.WedgeDetected(0)
		s.Requeued(0, 1, 2)
		s.Installed(0, 1, 2, 3, 4, time.Millisecond)
		s.CheckpointWritten(0, 1, 100, time.Millisecond)
		s.WorkerRound(0, 1, 2, time.Millisecond)
	}
	fn() // warm
	if got := testing.AllocsPerRun(50, fn); got != 0 {
		t.Errorf("nil sink allocates %.1f per round of calls, want 0", got)
	}
}

// TestMetricHotPathAllocs pins the enabled metric primitives: Counter.Add,
// Gauge.Set and Histogram.Observe are the per-ack/per-round operations and
// must stay allocation-free even with telemetry on.
func TestMetricHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h_seconds", "", DefSecondsBuckets)
	fn := func() {
		c.Add(3)
		g.Set(2)
		g.Add(0.5)
		h.Observe(0.042)
	}
	fn() // warm
	if got := testing.AllocsPerRun(50, fn); got != 0 {
		t.Errorf("enabled metric primitives allocate %.1f per round, want 0", got)
	}
}

// TestSinkAckHotPathAllocs pins the steady-state ObserveAck path with
// metrics enabled but tracing off: after a slot's histogram exists, each
// ack costs zero allocations.
func TestSinkAckHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	s := NewSink(NewRegistry(), nil)
	s.ObserveAck(0, time.Millisecond) // registers the slot histogram
	fn := func() { s.ObserveAck(0, 2*time.Millisecond) }
	fn() // warm
	if got := testing.AllocsPerRun(50, fn); got != 0 {
		t.Errorf("steady-state ObserveAck allocates %.1f, want 0", got)
	}
}
