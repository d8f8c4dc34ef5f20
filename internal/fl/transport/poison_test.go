package transport_test

import (
	"testing"

	"reffil/internal/data"
	"reffil/internal/fl/fltest"
	"reffil/internal/fl/transport"
)

// TestPoisonedBuffersLeaveRunsBitIdentical is the lifetime gate for the
// federation's reused buffers. With every connection's read buffer
// overwritten by 0xFF once its message is consumed, every Executor's upload
// buffer once its ack is sent, the encoder's broadcast patch bytes at the
// next round's SetRound, every Pipeline decode buffer's tensors once the
// engine releases the result decoded into them, the engine accumulator's
// kept sums at its next Reset and every released replica, a federation of
// RefFiL and of FedLwF — whose wire-state payloads change at task
// boundaries — must be the reference run, as an unpoisoned one is, with the
// unpoisoned one's byte counts; and a worker crash with re-dial, whose
// re-queued jobs run on a survivor brought to the round's state by their
// frame, must still be the reference run. Any field kept past its message,
// a broadcast patch written after the next round began, an upload kept
// past its send, a result read past its release — the engine's first
// result included, whose tensors the aggregate may alias until it is
// installed — or an aggregate read after the next round began would read
// 0xFF or NaN instead.
func TestPoisonedBuffersLeaveRunsBitIdentical(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	for _, method := range []string{"RefFiL", "FedLwF"} {
		t.Run(short(method), func(t *testing.T) {
			want := fltest.Reference(t, method, family, domains)
			clean := fltest.Federate(t, method, family, domains, fltest.Federation{Workers: plain(2)})
			restore := transport.PoisonReusedBuffers()
			poisoned := fltest.Federate(t, method, family, domains, fltest.Federation{Workers: plain(2)})
			restore()
			fltest.RequireSameRun(t, "clean", want, clean.Run)
			fltest.RequireSameRun(t, "poisoned", want, poisoned.Run)
			if clean.Stats != poisoned.Stats {
				t.Fatalf("stats differ under poisoned buffers:\n%+v\n%+v", clean.Stats, poisoned.Stats)
			}
		})
	}
	t.Run("redial", func(t *testing.T) {
		want := fltest.Reference(t, "RefFiL", family, domains)
		defer transport.PoisonReusedBuffers()()
		got := fltest.Federate(t, "RefFiL", family, domains, fltest.Federation{
			Workers: []fltest.Worker{redialer(0, 0), {}},
			Hook:    awaitLiveBefore(0, 1, 2),
		})
		fltest.RequireSameRun(t, "poisoned crash-and-redial", want, got.Run)
		requireAllPatchUploads(t, got.Stats)
	})
}
