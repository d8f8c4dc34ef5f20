package transport

import (
	"net"
	"testing"
	"time"
)

// BenchmarkJoinAdmission prices the v7 membership handshake end to end on
// loopback: one iteration is a worker's Dial (TCP connect + Hello +
// HelloAck) plus the coordinator observing the admission (Accept). This is
// the latency a mid-run joiner adds before it can receive its first
// broadcast.
func BenchmarkJoinAdmission(b *testing.B) {
	coord, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := Dial(coord.Addr(), i)
		if err != nil {
			b.Fatal(err)
		}
		if err := coord.Accept(1, 10*time.Second); err != nil {
			b.Fatal(err)
		}
		_ = w.Close()
	}
}

// BenchmarkHeartbeatDetection measures how long the coordinator takes to
// unmask a wedged worker — socket open, broadcasts drained, nothing sent
// back once the first broadcast arrives — for several timeouts, each
// reached by advertising a heartbeat of a quarter of it. The endpoint pongs
// until the broadcast, as the slot's reader reads it from the handshake on.
// One iteration runs from the broadcast's send until the coordinator counts
// the slot dead, so ns/op ≈ the detection latency: at most the timeout (the
// deadline runs from the last frame the slot's reader read, the Hello or a
// pong), plus scheduling overhead. Pre-v7 the slot was never given up.
func BenchmarkHeartbeatDetection(b *testing.B) {
	for _, timeout := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond} {
		b.Run(timeout.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				coord, err := Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				conn, err := net.Dial("tcp", coord.Addr())
				if err != nil {
					b.Fatal(err)
				}
				enc, dec := frameWriter{w: conn}, frameReader{r: conn}
				if err := enc.writeHello(Hello{Version: ProtocolVersion, Heartbeat: timeout / 4}); err != nil {
					b.Fatal(err)
				}
				ack, err := dec.readHelloAck()
				if err != nil || ack.Error != "" {
					b.Fatalf("join failed: %v %q", err, ack.Error)
				}
				broadcast := make(chan struct{})
				go func() {
					buf := make([]byte, 1<<16)
					for first := true; ; first = false {
						if _, err := conn.Read(buf); err != nil {
							return
						}
						if first {
							close(broadcast)
						}
					}
				}()
				go func() {
					tick := time.NewTicker(timeout / 4)
					defer tick.Stop()
					for {
						select {
						case <-broadcast:
							return
						case <-tick.C:
							if enc.writeUpdate(&Update{Version: ProtocolVersion, Pong: true}) != nil {
								return
							}
						}
					}
				}()
				if err := coord.Accept(1, 10*time.Second); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := coord.send(ack.Slot, Broadcast{}, nil); err != nil {
					b.Fatal(err)
				}
				for coord.NumLive() > 0 {
					time.Sleep(100 * time.Microsecond)
				}
				b.StopTimer()
				_ = conn.Close()
				_ = coord.Close()
			}
		})
	}
}
