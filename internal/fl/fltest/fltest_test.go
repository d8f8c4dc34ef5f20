package fltest_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
)

// ulpAlg moves the first weight of its global state up by one ULP right
// after round (task, round) is installed, and is the algorithm it wraps
// otherwise.
type ulpAlg struct {
	fl.Algorithm
	task, round int
}

func (a *ulpAlg) ServerRound(task, round int, uploads []fl.Upload) error {
	if err := a.Algorithm.ServerRound(task, round, uploads); err != nil {
		return err
	}
	if task == a.task && round == a.round {
		w := a.Global().Params()[0].Value.T.Data()
		w[0] = math.Nextafter(w[0], math.Inf(1))
	}
	return nil
}

// recordingTB records the failures RequireSameRun reports instead of
// failing the test. Fatalf ends the calling goroutine, as it does on a
// *testing.T; any other failure reaches the test itself.
type recordingTB struct {
	testing.TB
	failures []string
}

func (r *recordingTB) Helper() {}

func (r *recordingTB) Fatalf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	runtime.Goexit()
}

// verdict runs RequireSameRun on a goroutine of its own, so that a fatal
// failure ends only that goroutine, and returns the failures it recorded.
func verdict(t *testing.T, want, got fltest.Run) []string {
	rec := &recordingTB{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fltest.RequireSameRun(rec, "perturbed", want, got)
	}()
	<-done
	return rec.failures
}

// TestRequireSameRunNamesTheFirstDivergedRound is the oracle's own test. A
// run whose global state moves by one ULP in one weight right after a
// chosen round must fail RequireSameRun against the reference, and the one
// failure must name that round and say that the weights differ; the same
// run unperturbed must pass.
func TestRequireSameRunNamesTheFirstDivergedRound(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	const method = "Finetune"
	want := fltest.Reference(t, method, family, domains)
	if failures := verdict(t, want, fltest.Local(t, method, family, domains, fltest.LocalRun{})); len(failures) != 0 {
		t.Fatalf("an unperturbed run fails the oracle: %q", failures)
	}
	for _, at := range [][2]int{{0, 1}, {1, 0}} {
		t.Run(fmt.Sprintf("task%d_round%d", at[0], at[1]), func(t *testing.T) {
			alg := &ulpAlg{Algorithm: fltest.NewMethod(t, method, family, domains), task: at[0], round: at[1]}
			eng, err := fl.NewEngineWithRunner(fltest.Config(), alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fltest.Execute(t, eng, alg, family, domains, nil)
			if err != nil {
				t.Fatal(err)
			}
			failures := verdict(t, want, got)
			wantMsg := fmt.Sprintf("diverged first at task %d round %d: the global weights differ", at[0], at[1])
			if len(failures) != 1 || !strings.Contains(failures[0], wantMsg) {
				t.Fatalf("RequireSameRun reported %q, want one failure saying %q", failures, wantMsg)
			}
		})
	}
}
