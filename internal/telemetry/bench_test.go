package telemetry

import (
	"testing"
	"time"
)

// BenchmarkTelemetryOverhead measures the instrumented-vs-off cost of the
// per-round and per-ack hot paths: the no-op (nil sink) branch that every
// call site pays when telemetry is disabled, the enabled metric
// primitives, and the full ObserveRound/ObserveAck fan-out.
func BenchmarkTelemetryOverhead(b *testing.B) {
	obs := RoundObservation{
		Task: 0, Round: 3, Attempts: 1, Start: time.Now(),
		DispatchNanos: 2e6, FirstAckNanos: 5e6, LastAckNanos: 9e6,
		DeltaFrames: 2, PatchUploads: 4,
		BroadcastBytes: 1 << 20, UploadBytes: 1 << 19,
	}

	b.Run("ObserveRound/noop", func(b *testing.B) {
		var s *Sink
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ObserveRound(obs)
		}
	})
	b.Run("ObserveRound/metrics", func(b *testing.B) {
		s := NewSink(NewRegistry(), nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ObserveRound(obs)
		}
	})
	b.Run("ObserveAck/noop", func(b *testing.B) {
		var s *Sink
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ObserveAck(0, time.Millisecond)
		}
	})
	b.Run("ObserveAck/metrics", func(b *testing.B) {
		s := NewSink(NewRegistry(), nil)
		s.ObserveAck(0, time.Millisecond)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ObserveAck(0, time.Millisecond)
		}
	})
	b.Run("CounterAdd/noop", func(b *testing.B) {
		var c *Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("CounterAdd/enabled", func(b *testing.B) {
		c := NewRegistry().Counter("c_total", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("HistogramObserve/noop", func(b *testing.B) {
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.042)
		}
	})
	b.Run("HistogramObserve/enabled", func(b *testing.B) {
		h := NewRegistry().Histogram("h_seconds", "", DefSecondsBuckets)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.042)
		}
	})
}
