package autograd_test

import (
	"math"
	"math/rand"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/core"
	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/tensor"
)

// TestHandOffZeroSignsLeaveLeafGradsBitIdentical is the sign-flip oracle of
// Backward's hand-offs. For one optimiser step of every method — at task 1,
// after a task-0 update, server round and task end, so that distillation,
// the Fisher penalty, prompt pools and RefFiL's bank all take part — every
// zero of every gradient buffer that changes hands is forced to −0 in one
// run and to +0 in another. The +0 run is the tape that adds each first
// gradient into zeros; the parameters' gradients of the two runs, and of a
// run that leaves the signs as they fall, must agree bit for bit.
func TestHandOffZeroSignsLeaveLeafGradsBitIdentical(t *testing.T) {
	const seed = 17
	family, err := experiments.ScaleSmoke.Family("pacs")
	if err != nil {
		t.Fatal(err)
	}
	domains := experiments.OrderA.Domains(family)
	var train [2]*data.Dataset
	for task := range train {
		if train[task], _, err = family.Generate(domains[task], 16, 1, seed+int64(task)); err != nil {
			t.Fatal(err)
		}
		train[task].SetTask(task)
	}
	negZero := math.Copysign(0, -1)
	for _, method := range experiments.MethodNames {
		t.Run(method, func(t *testing.T) {
			alg, err := experiments.NewMethod(method, experiments.ScaleSmoke.ModelConfig(family.Classes), len(domains), seed)
			if err != nil {
				t.Fatal(err)
			}
			var arena, job tensor.Arena
			if err := alg.OnTaskStart(0); err != nil {
				t.Fatal(err)
			}
			_, up := localStep(t, alg, &arena, &job, 0, train[0])
			if err := alg.ServerRound(0, 0, []fl.Upload{up}); err != nil {
				t.Fatal(err)
			}
			if r, ok := alg.(*core.RefFiL); ok && r.Bank().Empty() {
				t.Fatal("RefFiL's prompt bank is empty after the task-0 round")
			}
			if err := alg.OnTaskEnd(0, train[0]); err != nil {
				t.Fatal(err)
			}
			if err := alg.OnTaskStart(1); err != nil {
				t.Fatal(err)
			}

			want, _ := localStep(t, alg, &arena, &job, 1, train[1])
			var negWritten, posWritten int
			restore := autograd.ForceHandedOverZeros(negZero, &negWritten)
			neg, _ := localStep(t, alg, &arena, &job, 1, train[1])
			restore()
			restore = autograd.ForceHandedOverZeros(0, &posWritten)
			pos, _ := localStep(t, alg, &arena, &job, 1, train[1])
			restore()

			if negWritten == 0 {
				t.Fatal("no handed-over buffer held a zero to force")
			}
			if negWritten != posWritten {
				t.Errorf("forced %d zeros to −0 and %d to +0; the tapes differ in more than zero signs", negWritten, posWritten)
			}
			for i, name := range gradNames(alg) {
				if !neg[i].EqualBits(pos[i]) {
					t.Errorf("%s: gradient differs between −0 and +0 hand-offs", name)
				}
				if !want[i].EqualBits(pos[i]) {
					t.Errorf("%s: gradient of the unforced run differs from the +0 run's", name)
				}
			}
		})
	}
}

// localStep spawns a replica of alg and runs one client update of one
// optimiser step over ds (BatchSize is its length) at the given task, on a
// step arena and a job arena lent as a LocalRunner slot lends them: the job
// arena reset as the update starts. It returns a copy of every trainable
// parameter's gradient — read after LocalTrain returns, from the job arena —
// in Params order, and the update's upload.
func localStep(t *testing.T, alg fl.Algorithm, arena, job *tensor.Arena, task int, ds *data.Dataset) ([]*tensor.Tensor, fl.Upload) {
	t.Helper()
	rep, err := alg.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	job.Reset()
	up, err := rep.LocalTrain(&fl.LocalContext{
		Task: task, ClientTask: task, Group: fl.GroupInBetween, Data: ds,
		Epochs: 1, BatchSize: len(ds.Examples), LR: 0.02,
		Rng: rand.New(rand.NewSource(5)), Arena: arena, JobArena: job,
	})
	if err != nil {
		t.Fatal(err)
	}
	var grads []*tensor.Tensor
	for _, p := range rep.Global().Params() {
		if p.Value.Grad == nil {
			t.Fatalf("parameter %s has no gradient after the step", p.Name)
		}
		if !p.Value.Grad.DrawnFrom(job) {
			t.Fatalf("parameter %s's gradient is not a draw of the job arena", p.Name)
		}
		grads = append(grads, p.Value.Grad.Clone())
	}
	return grads, up
}

// gradNames names alg's trainable parameters in Params order.
func gradNames(alg fl.Algorithm) []string {
	var names []string
	for _, p := range alg.Global().Params() {
		names = append(names, p.Name)
	}
	return names
}
