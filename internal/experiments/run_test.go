package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reffil/internal/checkpoint"
	"reffil/internal/core"
	"reffil/internal/metrics"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// TestRunResumesFromFinishedSnapshot runs RefFiL with a snapshot directory,
// then builds the same run over that directory again: the second run starts
// from the finished snapshot, and both report the matrix and state hash of a
// run that kept no snapshot at all. The finished snapshot's dict, loaded
// into a freshly built model as README describes, is the final model.
func TestRunResumesFromFinishedSnapshot(t *testing.T) {
	want, err := RunOne("RefFiL", "pacs", ScaleSmoke, OrderA, NoOverrides, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for pass := 0; pass < 2; pass++ {
		r, err := NewRun("RefFiL", "pacs", ScaleSmoke, OrderA, NoOverrides, 5, nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		if started := r.resume != nil; started != (pass == 1) {
			t.Fatalf("pass %d: resuming is %v", pass, started)
		}
		if pass == 1 && r.resume.NextTask != len(r.domains) {
			t.Fatalf("the finished snapshot resumes at task %d of %d", r.resume.NextTask, len(r.domains))
		}
		res, err := r.Execute(nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := metrics.HashMatrix(res.Matrix), metrics.HashMatrix(want.Matrix); got != want {
			t.Errorf("pass %d: matrix %s, want %s", pass, got, want)
		}
		if res.State != want.State {
			t.Errorf("pass %d: state %s, want %s", pass, res.State, want.State)
		}
	}
	rs, err := checkpoint.LoadRunStateFile(filepath.Join(dir, "run.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	scale, err := ParseScale(rs.Scale)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRun(rs.Method, rs.Dataset, scale, OrderA, NoOverrides, rs.Seed, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadStateDict(fresh.Alg.Global(), rs.Global); err != nil {
		t.Fatal(err)
	}
	if got := metrics.HashState(nn.StateDict(fresh.Alg.Global())); got != want.State {
		t.Errorf("the final snapshot's model has state %s, want %s", got, want.State)
	}
}

// writeSnapshot saves a run snapshot stamped (method, dataset, scale, seed)
// as dir's run.ckpt and returns its path.
func writeSnapshot(t *testing.T, dir, method, dataset, scale string, seed int64) string {
	t.Helper()
	path := filepath.Join(dir, "run.ckpt")
	rs := &checkpoint.RunState{
		Method: method, Dataset: dataset, Scale: scale, Seed: seed,
		Global: map[string]*tensor.Tensor{"w": tensor.New(2)},
	}
	if err := checkpoint.SaveRunStateFile(path, rs); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRefusesAnotherRunsSnapshot stamps a snapshot with another method,
// dataset, scale or seed: NewRun, which precedes all training, refuses it and
// names both runs.
func TestRunRefusesAnotherRunsSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name, method, dataset, scale string
		seed                         int64
	}{
		{"method", "FedLwF", "pacs", "smoke", 5},
		{"dataset", "Finetune", "officecaltech10", "smoke", 5},
		{"scale", "Finetune", "pacs", "mini", 5},
		{"seed", "Finetune", "pacs", "smoke", 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSnapshot(t, dir, tc.method, tc.dataset, tc.scale, tc.seed)
			_, err := NewRun("Finetune", "pacs", ScaleSmoke, OrderA, NoOverrides, 5, nil, dir)
			if err == nil {
				t.Fatal("another run's snapshot was accepted")
			}
			theirs := "-method " + tc.method + " -dataset " + tc.dataset + " -scale " + tc.scale + " -seed "
			if !strings.Contains(err.Error(), theirs) || !strings.Contains(err.Error(), "not -method Finetune -dataset pacs -scale smoke -seed 5") {
				t.Fatalf("the refusal does not name both runs: %v", err)
			}
		})
	}
}

// TestRunRefusesSnapshotDirForUnstampedSettings: a snapshot records only
// (method, dataset, scale, seed), so NewRun refuses a snapshot directory for
// a run that sets anything else — order B, a RefFiL variant, an override
// other than Workers — before it touches the directory; Workers alone, which
// never changes a result, is accepted.
func TestRunRefusesSnapshotDirForUnstampedSettings(t *testing.T) {
	workers := NoOverrides
	workers.Workers = 2
	selection := NoOverrides
	selection.SelectPerRound = 1
	transfer := NoOverrides
	transfer.TransferFrac = 0.5
	clients := NoOverrides
	clients.InitialClients = 3
	growth := NoOverrides
	growth.ClientsPerTaskInc = 1
	variant := func(c *core.Config) { c.Tau = 0.5 }
	for _, tc := range []struct {
		name   string
		order  Order
		ov     Overrides
		mutate func(*core.Config)
	}{
		{"order B", OrderB, NoOverrides, nil},
		{"variant", OrderA, NoOverrides, variant},
		{"SelectPerRound", OrderA, selection, nil},
		{"TransferFrac", OrderA, transfer, nil},
		{"InitialClients", OrderA, clients, nil},
		{"ClientsPerTaskInc", OrderA, growth, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snapshots")
			if _, err := NewRun("RefFiL", "pacs", ScaleSmoke, tc.order, tc.ov, 5, tc.mutate, dir); err == nil {
				t.Fatal("a snapshot directory was accepted for a run its snapshot cannot name")
			}
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the refused run touched its snapshot directory: %v", err)
			}
			if _, err := NewRun("RefFiL", "pacs", ScaleSmoke, tc.order, tc.ov, 5, tc.mutate, ""); err != nil {
				t.Fatalf("without a snapshot directory: %v", err)
			}
		})
	}
	if _, err := NewRun("RefFiL", "pacs", ScaleSmoke, OrderA, workers, 5, nil, t.TempDir()); err != nil {
		t.Fatalf("Workers alone: %v", err)
	}
}

// TestRunFailsOnDamagedSnapshot flips one byte of a snapshot of this very
// run: NewRun must fail rather than start the run afresh.
func TestRunFailsOnDamagedSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "Finetune", "pacs", "smoke", 5)
	if _, err := NewRun("Finetune", "pacs", ScaleSmoke, OrderA, NoOverrides, 5, nil, dir); err != nil {
		t.Fatalf("the undamaged snapshot: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewRun("Finetune", "pacs", ScaleSmoke, OrderA, NoOverrides, 5, nil, dir)
	if err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a damaged snapshot gave %v, want a load error", err)
	}
}

// TestRunStartsFreshInEmptyDirectory builds a run over a directory that does
// not exist yet: NewRun creates it and the run starts from scratch.
func TestRunStartsFreshInEmptyDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snapshots")
	r, err := NewRun("Finetune", "pacs", ScaleSmoke, OrderA, NoOverrides, 5, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.resume != nil {
		t.Fatal("an empty directory resumed a run")
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("the snapshot directory was not created: %v", err)
	}
}
