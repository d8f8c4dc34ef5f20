package fl_test

import (
	"sync"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/fl/transport"
	"reffil/internal/model"
)

// runPooled runs method through the engine's LocalRunner or, with tcp, over
// loopback TCP to two workers whose Executors each train on a LocalRunner of
// one goroutine, and returns the matrix and the coordinator's final state.
func runPooled(t *testing.T, method string, family *data.Family, domains []string, tcp bool) ([][]float64, fltest.Final) {
	t.Helper()
	newAlg := func() fl.Algorithm {
		alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	alg := newAlg()
	if !tcp {
		eng, err := fl.NewEngineWithRunner(parallelTestConfig(2), alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := eng.Run(family, domains)
		if err != nil {
			t.Fatal(err)
		}
		return mat.A, fltest.FinalOf(t, alg)
	}

	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const workers = 2
	var wg sync.WaitGroup
	workerErr := make([]error, workers)
	for id := 0; id < workers; id++ {
		ex, err := transport.NewExecutor(newAlg(), 1)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w, err := transport.Dial(coord.Addr(), id)
			if err != nil {
				workerErr[id] = err
				return
			}
			defer w.Close()
			workerErr[id] = w.Serve(ex.Handle)
		}(id)
	}
	if err := coord.Accept(workers, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	pl, err := transport.NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngineWithRunner(parallelTestConfig(2), alg, pl)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for id, err := range workerErr {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	return mat.A, fltest.FinalOf(t, alg)
}

// TestPoisonedReplicasLeaveRunsBitIdentical is the lifetime gate of the
// runner's replica pool. With every released replica's parameters and
// buffers filled with NaN before it re-enters the pool, all eight methods,
// through the engine's LocalRunner and through loopback TCP to Executors,
// must end on the matrix and the final state of an unpoisoned local run.
// So nothing reads a result dict after its Release: not the fold, not an
// Executor's upload encoder, and not the engine's first result, which the
// aggregate may alias until it is installed.
func TestPoisonedReplicasLeaveRunsBitIdentical(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	for _, method := range experiments.MethodNames {
		t.Run(method, func(t *testing.T) {
			want, wantFinal := runPooled(t, method, family, domains, false)
			restore := fl.PoisonReleasedReplicas()
			defer restore()
			for _, tcp := range []bool{false, true} {
				label := "poisoned local"
				if tcp {
					label = "poisoned TCP"
				}
				got, gotFinal := runPooled(t, method, family, domains, tcp)
				for i := range want {
					for j := 0; j <= i; j++ {
						if got[i][j] != want[i][j] {
							t.Fatalf("%s matrix [%d][%d] = %v, clean local run %v", label, i, j, got[i][j], want[i][j])
						}
					}
				}
				fltest.RequireSameFinal(t, label, wantFinal, gotFinal)
			}
		})
	}
}
