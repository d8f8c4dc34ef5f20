// Package fltest holds the harness and the oracle the engine's and the
// transport's equivalence tests share: the one run configuration, the
// in-process reference run, the loopback federation builder (federation.go),
// and RequireSameRun, which compares two runs snapshot by snapshot before it
// compares their matrices and final states, so a failure names the first
// (task, round) at which the runs diverged. Only tests import it.
package fltest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/metrics"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// Config is the run every equivalence test makes: deliberately tiny, with
// enough tasks, rounds and clients to exercise selection, the In-between
// shard merge, wire state for every method and multi-job broadcasts
// (SelectPerRound above a two-worker federation's size), and small enough
// for -race.
func Config() fl.Config {
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
		Workers:           2,
	}
}

// NewMethod builds the named method of the paper's tables for family over
// one task per domain, from construction seed 7: the coordinator's
// algorithm and every worker's are built alike, so all start from the same
// weights.
func NewMethod(t testing.TB, method string, family *data.Family, domains []string) fl.Algorithm {
	t.Helper()
	alg, err := experiments.NewMethod(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

// Position is a snapshot's resume position, as fl.ResumeState carries it.
type Position struct{ NextTask, NextRound int }

// Entry is one line of a run's transcript: the position of a snapshot the
// engine's Checkpoint hook emitted, with the hashes of the global state
// (metrics.HashState) and of the wire-state payload it carried ("" for a
// method without wire state).
type Entry struct {
	Position
	Global, Wire string
}

// Step names what the run did just before the entry's snapshot: a round,
// or a task's end — its task-end hook and evaluation.
func (e Entry) Step() string {
	if e.NextRound == 0 {
		return fmt.Sprintf("the end of task %d", e.NextTask-1)
	}
	return fmt.Sprintf("task %d round %d", e.NextTask, e.NextRound-1)
}

// next names the step a run takes after a snapshot at p.
func (p Position) next() string {
	if p.NextRound == Config().Rounds {
		return fmt.Sprintf("the end of task %d", p.NextTask)
	}
	return fmt.Sprintf("task %d round %d", p.NextTask, p.NextRound)
}

func entryOf(st fl.ResumeState) Entry {
	e := Entry{Position: Position{st.NextTask, st.NextRound}, Global: metrics.HashState(st.Global)}
	if st.HasPayload {
		sum := sha256.Sum256(st.Payload)
		e.Wire = hex.EncodeToString(sum[:8])
	}
	return e
}

// Run is what a run leaves: its transcript and snapshots, and, once it
// finished, its matrix and final state. Matrix is nil for a run that ended
// early by design (killed at a snapshot): RequireSameRun then compares its
// transcript alone, as a prefix of the reference's.
type Run struct {
	Matrix     [][]float64
	Final      Final
	Transcript []Entry
	// Snapshots are the snapshots behind Transcript, in order.
	Snapshots []fl.ResumeState
	// From is the position the run resumed from; nil for a run from the
	// start.
	From *Position
}

// stoppedIn names the step a run that ended early was taking: the one after
// its last snapshot, or after its resume point when it took none.
func (r Run) stoppedIn() string {
	var p Position
	if r.From != nil {
		p = *r.From
	}
	if n := len(r.Transcript); n > 0 {
		p = r.Transcript[n-1].Position
	}
	return p.next()
}

// Execute runs eng over family's domains and returns what the run left,
// with the run's error. Every snapshot the engine emits is recorded through
// eng.Checkpoint, which Execute sets, with a copy of its global: the
// engine's is the live model, valid only during the call. hook, when
// non-nil, gets the snapshot as the engine gave it; it runs after the
// recorder at every snapshot, and its error aborts the run as a checkpoint
// hook's does. alg is the engine's algorithm, whose final state a finished
// run captures.
func Execute(t testing.TB, eng *fl.Engine, alg fl.Algorithm, family *data.Family, domains []string, hook func(fl.ResumeState) error) (Run, error) {
	t.Helper()
	var run Run
	if rs := eng.Resume; rs != nil {
		run.From = &Position{rs.NextTask, rs.NextRound}
	}
	eng.Checkpoint = func(st fl.ResumeState) error {
		run.Transcript = append(run.Transcript, entryOf(st))
		kept := st
		kept.Global = make(map[string]*tensor.Tensor, len(st.Global))
		//fedvet:ignore maporder a copy of each entry, in any order
		for k, t := range st.Global {
			kept.Global[k] = t.Clone()
		}
		run.Snapshots = append(run.Snapshots, kept)
		if hook != nil {
			return hook(st)
		}
		return nil
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		return run, err
	}
	run.Matrix = mat.A
	run.Final = finalOf(t, alg)
	return run, nil
}

// LocalRun configures an in-process run.
type LocalRun struct {
	// Workers, when positive, replaces Config's worker count.
	Workers int
	// Runner, when non-nil, builds the engine's runner around the run's
	// algorithm; nil keeps the engine's own LocalRunner.
	Runner func(alg fl.Algorithm) fl.EachRunner
	// Resume, when non-nil, is the snapshot the run resumes from.
	Resume *fl.ResumeState
}

// Local runs method in process under Config and fails the test if the run
// fails.
func Local(t testing.TB, method string, family *data.Family, domains []string, opt LocalRun) Run {
	t.Helper()
	cfg := Config()
	if opt.Workers > 0 {
		cfg.Workers = opt.Workers
	}
	alg := NewMethod(t, method, family, domains)
	var runner fl.EachRunner
	if opt.Runner != nil {
		runner = opt.Runner(alg)
	}
	eng, err := fl.NewEngineWithRunner(cfg, alg, runner)
	if err != nil {
		t.Fatal(err)
	}
	eng.Resume = opt.Resume
	run, err := Execute(t, eng, alg, family, domains, nil)
	if err != nil {
		t.Fatalf("local %s run failed in %s: %v", method, run.stoppedIn(), err)
	}
	return run
}

// references memoizes Reference per (method, family, class count, domains).
var references sync.Map

// Reference is the run every equivalence test compares against: method on
// the engine's own LocalRunner under Config. It runs at most once per
// (method, family, class count, domain count) in a test binary.
func Reference(t testing.TB, method string, family *data.Family, domains []string) Run {
	t.Helper()
	key := fmt.Sprintf("%s/%s/%d/%d", method, family.Name, family.Classes, len(domains))
	if run, ok := references.Load(key); ok {
		return run.(Run)
	}
	run := Local(t, method, family, domains, LocalRun{})
	references.Store(key, run)
	return run
}

// RequireSameRun requires got to be the run want is, want being a run from
// the start to the end. It compares the transcripts first, entry by entry —
// got's from its resume point on, against want's suffix from that point, and
// for a run that ended early only as far as it got — and fails at the first
// entry whose position, weights or wire state differ, naming the step that
// produced it. A finished run must then reach want's last snapshot, and match
// its matrix (requireSameMatrix) and final state (requireSameFinal).
func RequireSameRun(t testing.TB, label string, want, got Run) {
	t.Helper()
	ref := want.Transcript
	if got.From != nil {
		i := slices.IndexFunc(ref, func(e Entry) bool { return e.Position == *got.From })
		if i < 0 {
			t.Fatalf("%s resumed from %+v, a position the reference never reached", label, *got.From)
		}
		ref = ref[i+1:]
	}
	for i, g := range got.Transcript {
		if i == len(ref) {
			t.Fatalf("%s ran past the reference's last snapshot, on to %s", label, g.Step())
		}
		w := ref[i]
		switch {
		case g.Position != w.Position:
			t.Fatalf("%s took a snapshot after %s where the reference took one after %s", label, g.Step(), w.Step())
		case g.Global != w.Global:
			t.Fatalf("%s diverged first at %s: the global weights differ (state %s, reference %s)", label, w.Step(), g.Global, w.Global)
		case g.Wire != w.Wire:
			t.Fatalf("%s diverged first at %s: the wire state differs (%q, reference %q)", label, w.Step(), g.Wire, w.Wire)
		}
	}
	if got.Matrix == nil {
		return
	}
	if n := len(got.Transcript); n < len(ref) {
		t.Fatalf("%s finished without a snapshot after %s", label, ref[n].Step())
	}
	requireSameMatrix(t, label, want.Matrix, got.Matrix)
	requireSameFinal(t, label, want.Final, got.Final)
}

// requireSameMatrix requires bit-identical cells on the recorded lower
// triangle of two accuracy matrices: task i is evaluated on domains 0..i,
// and the rest stays NaN.
func requireSameMatrix(t testing.TB, label string, want, got [][]float64) {
	t.Helper()
	for i := range want {
		for j := 0; j <= i; j++ {
			if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
				t.Fatalf("accuracy matrix diverged at [%d][%d]: reference %v vs %s %v", i, j, want[i][j], label, got[i][j])
			}
		}
	}
}

// Final is what a finished run leaves besides its matrix: the global state
// dict and, for a method with wire state, the encoded wire state.
type Final struct {
	Global map[string]*tensor.Tensor
	Wire   []byte
}

// finalOf captures alg's final state.
func finalOf(t testing.TB, alg fl.Algorithm) Final {
	t.Helper()
	st := Final{Global: nn.StateDict(alg.Global())}
	if ws, ok := alg.(fl.WireStater); ok {
		wire, err := ws.EncodeWireState()
		if err != nil {
			t.Fatal(err)
		}
		st.Wire = wire
	}
	return st
}

// requireSameFinal requires got to hold the reference's weights bit for
// bit — the same key set both ways, the same shape under each key and every
// element's Float64bits — and the same wire-state bytes, nil only where the
// reference's are nil.
func requireSameFinal(t testing.TB, label string, want, got Final) {
	t.Helper()
	names := slices.Sorted(maps.Keys(want.Global))
	if gotNames := slices.Sorted(maps.Keys(got.Global)); !slices.Equal(gotNames, names) {
		t.Fatalf("%s global state has keys %q, the reference %q", label, gotNames, names)
	}
	for _, name := range names {
		w, g := want.Global[name], got.Global[name]
		if !g.SameShape(w) {
			t.Fatalf("%s global %q has shape %v, reference %v", label, name, g.Shape(), w.Shape())
		}
		for i, v := range w.Data() {
			if math.Float64bits(g.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("%s global %q[%d] = %v, reference %v", label, name, i, g.Data()[i], v)
			}
		}
	}
	if !bytes.Equal(got.Wire, want.Wire) || (got.Wire == nil) != (want.Wire == nil) {
		t.Fatalf("%s wire state (%d bytes) differs from the reference's (%d bytes)", label, len(got.Wire), len(want.Wire))
	}
}
