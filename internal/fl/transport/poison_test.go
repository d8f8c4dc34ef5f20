package transport_test

import (
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/fl/transport"
	"reffil/internal/model"
)

// TestPoisonedBuffersLeaveRunsBitIdentical is the lifetime gate for the
// transport's three reused buffers. With every connection's read buffer
// overwritten by 0xFF once its message is consumed, every Executor's upload
// buffer once its ack is sent, and every Pipeline decode buffer's tensors
// once the engine releases the result decoded into them, a federation
// of RefFiL and of FedLwF — whose wire-state payloads change at task
// boundaries — must give the same matrix, final state and byte counts as an
// unpoisoned one; and a worker crash with re-dial, whose re-queued jobs run
// on a survivor brought to the round's state by their frame, must still land
// the local matrix. Any field kept past its message, an upload kept past its
// send, or a result read past its release — the engine's first result
// included, whose tensors the aggregate may alias until it is installed —
// would read 0xFF or NaN instead.
func TestPoisonedBuffersLeaveRunsBitIdentical(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	for _, method := range []string{"RefFiL", "FedLwF"} {
		t.Run(short(method), func(t *testing.T) {
			var cleanState, poisonedState fltest.Final
			clean, cleanStats := runTCPWith(t, method, family, domains, tcpRun{workers: 2, final: &cleanState})
			restore := transport.PoisonReusedBuffers()
			poisoned, poisonedStats := runTCPWith(t, method, family, domains, tcpRun{workers: 2, final: &poisonedState})
			restore()
			requireSameMatrix(t, "poisoned", clean, poisoned)
			fltest.RequireSameFinal(t, "poisoned", cleanState, poisonedState)
			if cleanStats != poisonedStats {
				t.Fatalf("stats differ under poisoned buffers:\n%+v\n%+v", cleanStats, poisonedStats)
			}
		})
	}
	t.Run("redial", func(t *testing.T) {
		want := localRunOf(t, "RefFiL", family, domains)
		defer transport.PoisonReusedBuffers()()
		coord, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		rejoinErr := serveCrashing(t, coord, "RefFiL", family, len(domains), 0, 0, 0, func() bool { return true })
		surviveErr, _ := dialServe(t, coord, "RefFiL", family, len(domains), 1)
		alg, err := experiments.NewMethod("RefFiL", model.DefaultConfig(family.Classes), len(domains), 7)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := transport.NewPipeline(coord, alg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, runner)
		if err != nil {
			t.Fatal(err)
		}
		eng.Checkpoint = func(st fl.ResumeState) error {
			if st.NextTask == 0 && st.NextRound == 1 {
				return coord.AwaitLive(2, 10*time.Second)
			}
			return nil
		}
		mat, err := eng.Run(family, domains)
		if err != nil {
			t.Fatalf("poisoned crash-and-redial run failed: %v", err)
		}
		requireSameMatrix(t, "poisoned crash-and-redial", want.A, mat.A)
		fltest.RequireSameFinal(t, "poisoned crash-and-redial", want.final, fltest.FinalOf(t, alg))
		requireAllPatchUploads(t, runner.Stats())
		_ = runner.Close()
		if err := coord.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := <-rejoinErr; err != nil {
			t.Fatalf("re-joined worker: %v", err)
		}
		if err := <-surviveErr; err != nil {
			t.Fatalf("surviving worker: %v", err)
		}
	})
}
