// Worker-count and runner-contract determinism: the same seed must make the
// same run — every snapshot's state and wire-state hashes, the accuracy
// matrix and the final state — at Workers=1 and Workers=4 for every method
// of the paper's tables, and on a runner that completes jobs in reverse
// order. Each client trains an isolated replica under its own seeded RNG,
// every kernel runs on its caller's goroutine, and the engine folds in job
// order, so nothing depends on how many jobs train at once or which
// finishes first. Lives in an external test package so it can drive the
// real algorithms (importing baselines/core from package fl would be an
// import cycle).
package fl_test

import (
	"fmt"
	"testing"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
)

// TestWorkersDeterminism is the acceptance gate for the round scheduler:
// for a fixed seed, engines at Workers=1 and Workers=4 must each make the
// reference run (Workers=2) for every method, exactly — not within a
// tolerance.
func TestWorkersDeterminism(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := experiments.MethodNames
	if testing.Short() {
		methods = []string{"Finetune", "RefFiL"}
	}
	for _, method := range methods {
		t.Run(method, func(t *testing.T) {
			want := fltest.Reference(t, method, family, domains)
			for _, workers := range []int{1, 4} {
				got := fltest.Local(t, method, family, domains, fltest.LocalRun{Workers: workers})
				fltest.RequireSameRun(t, fmt.Sprintf("Workers=%d", workers), want, got)
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
// the opposite of job order still makes the LocalRunner run exactly,
// because the engine folds in job order whatever the completion order.
func TestEngineRunsOnRunEachAlone(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	got := fltest.Local(t, "RefFiL", family, domains, fltest.LocalRun{
		Runner: func(alg fl.Algorithm) fl.EachRunner { return reversedRunner{alg} },
	})
	fltest.RequireSameRun(t, "RunEach-only runner", fltest.Reference(t, "RefFiL", family, domains), got)
}
