package baselines

import (
	"math/rand"
	"testing"

	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/tensor"
)

// BenchmarkFedLwFStep reports B/op and allocs/op of one warm FedLwF
// optimiser step with a teacher — the student's forward and backward plus
// the teacher's forward inside the loss — as one full-batch client update
// per iteration, drawn from one kept arena as a LocalRunner worker slot's
// steps are. It is BenchmarkLocalTrainStep (internal/core) for the method
// whose every step also runs a forward pass nothing differentiates; arena-MB
// is what the warm arena holds, the teacher's Conv2D columns included
// while they are kept.
func BenchmarkFedLwFStep(b *testing.B) {
	alg, err := NewFedLwF(testModelCfg(), rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		b.Fatal(err)
	}
	train, _, err := family.Generate(family.Domains[1], 8, 7, 3)
	if err != nil {
		b.Fatal(err)
	}
	train.SetTask(1)
	for task := 0; task <= 1; task++ { // task 1 snapshots the teacher
		if err := alg.OnTaskStart(task); err != nil {
			b.Fatal(err)
		}
	}
	var arena tensor.Arena
	update := func(seed int64) {
		rep, err := alg.Spawn()
		if err != nil {
			b.Fatal(err)
		}
		_, err = rep.LocalTrain(&fl.LocalContext{
			Task: 1, ClientTask: 1, Group: fl.GroupNew, Data: train,
			Epochs: 1, BatchSize: 8, LR: 0.02,
			Rng: rand.New(rand.NewSource(seed)), Arena: &arena,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	update(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update(int64(i))
	}
	b.ReportMetric(float64(arena.Retained())/(1<<20), "arena-MB")
}
