package fl_test

import (
	"math"
	"testing"

	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/tensor"
)

// spyAlg records the replica each Spawn hands out.
type spyAlg struct {
	fl.Algorithm
	last fl.Algorithm
}

func (s *spyAlg) Spawn() (fl.Algorithm, error) {
	rep, err := s.Algorithm.Spawn()
	s.last = rep
	return rep, err
}

// cloningRunner is LocalRunner as it was before the hand-over and the
// replica pool: every result dict is replaced by clones before done sees it,
// and no replica goes back to the pool, so every job trains a fresh Spawn.
// Releasing a result fills its clones with NaN, the way a networked runner's
// next decode overwrites them, so an engine that read a dict after
// releasing it would diverge.
type cloningRunner struct{ inner *fl.LocalRunner }

func (r cloningRunner) RunEach(jobs []fl.Job, done func(i int, res fl.Result) error) error {
	return r.inner.RunEach(jobs, func(i int, res fl.Result) error {
		clones := make(map[string]*tensor.Tensor, len(res.Dict))
		for name, v := range res.Dict {
			clones[name] = v.Clone()
		}
		res.Dict = clones
		res.Release = func() {
			for _, v := range clones {
				v.Fill(math.NaN())
			}
		}
		return done(i, res)
	})
}

// TestLocalRunnerHandsOverReplicaState pins the move LocalRunner makes: a
// result's dict holds the trained replica's own parameter and buffer
// tensors, not copies — and the reference run, which folds those tensors
// and trains pooled replicas, is exactly the run that folds StateDict clones
// of fresh Spawns, which the engine hands back, poisoned, once it is done
// with them.
func TestLocalRunnerHandsOverReplicaState(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]

	spy := &spyAlg{Algorithm: fltest.NewMethod(t, "RefFiL", family, domains)}
	train, _, err := family.Generate(domains[0], 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]fl.Job, 2)
	for i := range jobs {
		spec := fl.JobSpec{ClientID: i, Epochs: 1, BatchSize: 4, LR: 0.05, RngSeed: int64(i)}
		jobs[i] = fl.Job{Ctx: spec.NewLocalContext(train)}
	}
	lr := &fl.LocalRunner{Alg: spy, Workers: 1}
	if err := lr.RunEach(jobs, func(i int, res fl.Result) error {
		g := spy.last.Global()
		if want := len(g.Params()) + len(g.Buffers()); len(res.Dict) != want {
			t.Fatalf("job %d: result holds %d tensors, the replica %d", i, len(res.Dict), want)
		}
		for _, p := range g.Params() {
			if res.Dict[p.Name] != p.Value.T {
				t.Fatalf("job %d: parameter %q is not the replica's own tensor", i, p.Name)
			}
		}
		for _, b := range g.Buffers() {
			if res.Dict[b.Name] != b.T {
				t.Fatalf("job %d: buffer %q is not the replica's own tensor", i, b.Name)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"RefFiL", "FedLwF"} {
		t.Run(name, func(t *testing.T) {
			cloned := fltest.Local(t, name, family, domains, fltest.LocalRun{Runner: func(alg fl.Algorithm) fl.EachRunner {
				return cloningRunner{&fl.LocalRunner{Alg: alg, Workers: 2}}
			}})
			fltest.RequireSameRun(t, "clones", fltest.Reference(t, name, family, domains), cloned)
		})
	}
}
