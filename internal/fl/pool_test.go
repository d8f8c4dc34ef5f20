package fl_test

import (
	"testing"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
)

// TestPoisonedReplicasLeaveRunsBitIdentical is the lifetime gate of the
// runner's replica pool. With every released replica's parameters and
// buffers filled with NaN before it re-enters the pool, all eight methods,
// through the engine's LocalRunner and through loopback TCP to two
// Executors, each training on a LocalRunner of one goroutine, must make the
// unpoisoned local run. So nothing reads a result dict after its Release:
// not the fold, not an Executor's upload encoder, and not the engine's
// first result, which the aggregate may alias until it is installed.
func TestPoisonedReplicasLeaveRunsBitIdentical(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	for _, method := range experiments.MethodNames {
		t.Run(method, func(t *testing.T) {
			want := fltest.Reference(t, method, family, domains)
			defer fl.PoisonReleasedReplicas()()
			local := fltest.Local(t, method, family, domains, fltest.LocalRun{})
			fltest.RequireSameRun(t, "poisoned local", want, local)
			tcp := fltest.Federate(t, method, family, domains, fltest.Federation{Workers: make([]fltest.Worker, 2)})
			fltest.RequireSameRun(t, "poisoned TCP", want, tcp.Run)
		})
	}
}
