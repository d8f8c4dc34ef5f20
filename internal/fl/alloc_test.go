package fl_test

import (
	"runtime"
	"testing"

	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/tensor"
)

// TestWarmEvaluationsAllocateNothingButPredictions is the allocation gate of
// the run's evaluation arena: RefFiL at mini scale evaluates one test set of
// two batches twice from the same arena, as every evaluation of a run
// shares one. The second pass draws every tensor — batches, forward passes,
// CDAP's inference key and affines, the tiled CLS token — from the warm
// arena, which does not grow. What it allocates is its prediction and label
// slices and per-batch bookkeeping (the parameter lists nn.Inference walks,
// index slices, the forward ops' small closures): about 56 KB, where a cold
// pass allocates some 8 MB, and where a pass that drew the CLS tiles and
// the CDAP affines from the heap allocated 114 KB.
func TestWarmEvaluationsAllocateNothingButPredictions(t *testing.T) {
	if fl.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const seed = 2
	family, err := experiments.ScaleMini.Family("pacs")
	if err != nil {
		t.Fatal(err)
	}
	domains := experiments.OrderA.Domains(family)
	alg, err := experiments.NewMethod("RefFiL", experiments.ScaleMini.ModelConfig(family.Classes), len(domains), seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.ScaleMini.EngineConfig("pacs", seed)
	eng, err := fl.NewEngineWithRunner(cfg, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, test, err := family.Generate(domains[0], 1, cfg.TestPerDomain, seed)
	if err != nil {
		t.Fatal(err)
	}
	if test.Len() <= cfg.EvalBatch {
		t.Fatalf("%d test examples fill one batch of %d; the gate needs the arena reset between batches", test.Len(), cfg.EvalBatch)
	}
	var arena tensor.Arena
	evaluate := func() (acc float64, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		acc, err := eng.Evaluate(&arena, test)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return acc, after.TotalAlloc - before.TotalAlloc
	}
	coldAcc, cold := evaluate()
	warmArena := arena.Retained()
	warmAcc, bytes := evaluate()
	t.Logf("cold pass %.0f KB, warm pass %.1f KB; arena %.0f KB",
		float64(cold)/1024, float64(bytes)/1024, float64(warmArena)/1024)
	if warmAcc != coldAcc {
		t.Fatalf("accuracy %v on the warm arena, %v on the cold one", warmAcc, coldAcc)
	}
	if arena.Retained() != warmArena {
		t.Errorf("the warm pass grew the arena from %d to %d bytes", warmArena, arena.Retained())
	}
	if bytes > 64<<10 {
		t.Errorf("the warm pass allocates %.1f KB, want at most 64 KB", float64(bytes)/1024)
	}
}
