// Parallel-determinism coverage for the clone-based round scheduler: the
// same seed must produce bit-identical accuracy matrices at Workers=1 and
// Workers=N for every method family. Lives in an external test package so
// it can drive the real algorithms (importing baselines/core from package
// fl would be an import cycle).
package fl_test

import (
	"math/rand"
	"testing"

	"reffil/internal/baselines"
	"reffil/internal/core"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/metrics"
	"reffil/internal/model"
	"reffil/internal/nn"
)

// parallelTestConfig is deliberately tiny: enough rounds/clients to exercise
// selection, dropout-free fan-out and aggregation, small enough for -race.
func parallelTestConfig(workers int) fl.Config {
	return fl.Config{
		Rounds:            2,
		Epochs:            1,
		BatchSize:         8,
		LR:                0.05,
		InitialClients:    4,
		SelectPerRound:    3,
		ClientsPerTaskInc: 1,
		TransferFrac:      0.8,
		Alpha:             0.5,
		TrainPerDomain:    24,
		TestPerDomain:     12,
		EvalBatch:         12,
		Seed:              2025,
		Workers:           workers,
	}
}

// newParallelTestMethod builds one of the method families over the mini
// backbone. Construction is seeded so both engine runs start from identical
// weights.
func newParallelTestMethod(t *testing.T, name string, classes, maxTasks int) fl.Algorithm {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	modelCfg := model.DefaultConfig(classes)
	var (
		alg fl.Algorithm
		err error
	)
	switch name {
	case "Finetune":
		alg, err = baselines.NewFinetune(modelCfg, rng)
	case "FedLwF":
		alg, err = baselines.NewFedLwF(modelCfg, rng)
	case "FedEWC":
		alg, err = baselines.NewFedEWC(modelCfg, rng)
	case "FedL2P+pool":
		alg, err = baselines.NewFedL2P(modelCfg, true, rng)
	case "FedDualPrompt":
		alg, err = baselines.NewFedDualPrompt(modelCfg, maxTasks, false, rng)
	case "RefFiL":
		cfg := core.DefaultConfig(classes, maxTasks)
		cfg.Model = modelCfg
		alg, err = core.New(cfg, rng)
	default:
		t.Fatalf("unknown method %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

// TestWorkersDeterminism is the acceptance gate for the parallel round
// scheduler: for a fixed seed, Workers=1 and Workers=4 engines must produce
// identical accuracy matrices for every method, exactly (==, not within a
// tolerance), and final global states of the same hash — the kernels and
// scheduler are chunking-invariant by design.
func TestWorkersDeterminism(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := []string{"Finetune", "FedLwF", "FedEWC", "FedL2P+pool", "FedDualPrompt", "RefFiL"}
	if testing.Short() {
		methods = []string{"Finetune", "RefFiL"}
	}
	for _, name := range methods {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(workers int) ([][]float64, string) {
				alg := newParallelTestMethod(t, name, family.Classes, len(domains))
				eng, err := fl.NewEngineWithRunner(parallelTestConfig(workers), alg, nil)
				if err != nil {
					t.Fatal(err)
				}
				mat, err := eng.Run(family, domains)
				if err != nil {
					t.Fatal(err)
				}
				return mat.A, metrics.HashState(nn.StateDict(alg.Global()))
			}
			seq, seqState := run(1)
			par, parState := run(4)
			if seqState != parState {
				t.Errorf("final global state diverged: Workers=1 hashes to %s, Workers=4 to %s", seqState, parState)
			}
			// Only the lower triangle is recorded (task i is evaluated on
			// domains 0..i); the rest stays NaN.
			for i := range seq {
				for j := 0; j <= i; j++ {
					if seq[i][j] != par[i][j] {
						t.Fatalf("accuracy matrix diverged at [%d][%d]: Workers=1 %v vs Workers=4 %v",
							i, j, seq[i][j], par[i][j])
					}
				}
			}
		})
	}
}

// reversedRunner is the whole runner contract and nothing else: it has a
// RunEach and no Run. It trains the jobs one at a time in reverse job order
// — each on a Spawn replica, as the contract demands — so every result but
// the last reaches the engine ahead of its turn.
type reversedRunner struct{ alg fl.Algorithm }

func (r reversedRunner) RunEach(jobs []fl.Job, done func(i int, res fl.Result) error) error {
	one := &fl.LocalRunner{Alg: r.alg, Workers: 1}
	for i := len(jobs) - 1; i >= 0; i-- {
		err := one.RunEach(jobs[i:i+1], func(_ int, res fl.Result) error { return done(i, res) })
		if err != nil {
			return err
		}
	}
	return nil
}

// TestEngineRunsOnRunEachAlone pins the one-runner-contract claim: RunEach
// is all the engine asks of a runner, and a runner that completes jobs in
// the opposite of job order still lands the LocalRunner matrix exactly,
// because the engine folds in job order whatever the completion order.
func TestEngineRunsOnRunEachAlone(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	run := func(runner func(fl.Algorithm) fl.EachRunner) [][]float64 {
		alg := newParallelTestMethod(t, "RefFiL", family.Classes, len(domains))
		eng, err := fl.NewEngineWithRunner(parallelTestConfig(2), alg, runner(alg))
		if err != nil {
			t.Fatal(err)
		}
		mat, err := eng.Run(family, domains)
		if err != nil {
			t.Fatal(err)
		}
		return mat.A
	}
	want := run(func(alg fl.Algorithm) fl.EachRunner { return &fl.LocalRunner{Alg: alg, Workers: 2} })
	got := run(func(alg fl.Algorithm) fl.EachRunner { return reversedRunner{alg} })
	for i := range want {
		for j := 0; j <= i; j++ {
			if want[i][j] != got[i][j] {
				t.Fatalf("accuracy matrix diverged at [%d][%d]: LocalRunner %v vs RunEach-only runner %v",
					i, j, want[i][j], got[i][j])
			}
		}
	}
}
