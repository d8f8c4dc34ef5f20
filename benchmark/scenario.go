package main

import (
	"fmt"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/model"
)

// workload is one row of the benchmark: a federated scenario and the runner
// it goes through.
type workload struct {
	name string
	why  string
	// tcp runs the scenario through loopback transport.Pipeline with the
	// delta codec and two in-process workers; otherwise fl.LocalRunner.
	tcp bool
	// checkpoint writes checkpoint.SaveRunStateFile from Engine.Checkpoint
	// after every round, as fedserver -checkpoint-dir does.
	checkpoint bool
	// synth, when set, replaces RefFiL with the stub algorithm; rounds is
	// per size (full, smoke).
	synth  *synthShape
	rounds [2]int
}

// Pool and core budget shared by every workload: never more compute
// goroutines than the two cores the load shape is defined for.
const (
	benchProcs   = 2
	localWorkers = 2
	tcpWorkers   = 2
	synthClients = 8
	paperDataset = "pacs"
	paperMethod  = "RefFiL"
	wireCodec    = "delta"
	// scheduleSeed is the engine seed of every run. Data generation, the
	// partition, client selection and batch order all derive from it, so
	// every -seed runs the same schedule on the same shards: the seed changes
	// the numbers that flow through the system, never the shape of the work.
	// Runs of different seeds are then comparable, which the acceptance
	// protocol (ten seeds, spread within the bound) needs: with the engine
	// seeded from -seed, selection and shard sizes moved the samples visited
	// by 10% and the two workers' balance by another 4%.
	scheduleSeed = 1
)

var workloads = []workload{
	{
		name: "local_reffil_pacs",
		why:  "the paper path: RefFiL on PACS at mini scale through LocalRunner; the training step does nearly all the work and transport none",
	},
	{
		name: "tcp_reffil_pacs", tcp: true, checkpoint: true,
		why: "the operator path: the same scenario and seed over loopback Pipeline with the delta codec and a checkpoint every round; the gap to the local row is the comms and checkpoint stack",
	},
	{
		name: "tcp_synth_dense", tcp: true,
		synth: &synthShape{keys: 64, elems: 16384, changed: 64}, rounds: [2]int{12, 2},
		why: "communication-dominated: a 1M-parameter stub with no compute changes every element each update, so pack, deflate, gob framing, sockets, Spawn copies and the fold do the work",
	},
	{
		name: "tcp_synth_sparse", tcp: true,
		synth: &synthShape{keys: 64, elems: 16384, changed: 8}, rounds: [2]int{48, 3},
		why: "the wire layer the other way: only 8 of 64 keys change per update, so compare-and-skip of unchanged keys replaces pack-and-deflate",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// size selects the recorded benchmark size or the tiny -smoke one.
type size int

const (
	sizeFull size = iota
	sizeSmoke
)

// scenario is a workload made concrete for one seed: everything the
// program under test receives.
type scenario struct {
	wl      workload
	seed    int64
	cfg     fl.Config
	family  *data.Family
	domains []string
	// modelCfg is the backbone configuration of the paper rows.
	modelCfg model.Config
}

// newScenario generates the inputs from the seed: through newAlg the
// initial weights of coordinator and workers, and on the synthetic rows every
// update's perturbation. The engine configuration is the same for all seeds
// (see scheduleSeed).
func newScenario(wl workload, seed int64, sz size) (*scenario, error) {
	// ScaleMini's family at both sizes: ShardSpec.Materialize rebuilds the
	// family without a class limit, so ScaleSmoke's 6-class PACS cannot be
	// reproduced by a TCP worker; PACS's 7 classes are under mini's limit.
	family, err := experiments.ScaleMini.Family(paperDataset)
	if err != nil {
		return nil, err
	}
	scale := experiments.ScaleMini
	if sz == sizeSmoke {
		scale = experiments.ScaleSmoke
	}
	sc := &scenario{wl: wl, seed: seed, family: family, domains: family.Domains}
	sc.cfg = scale.EngineConfig(paperDataset, scheduleSeed)
	sc.modelCfg = scale.ModelConfig(family.Classes)
	if wl.synth != nil {
		// One task, every client every round, small shards: the stub ignores
		// its data, the engine still generates and partitions it.
		sc.domains = family.Domains[:1]
		sc.cfg.Rounds, sc.cfg.Epochs = wl.rounds[sz], 1
		sc.cfg.InitialClients, sc.cfg.SelectPerRound, sc.cfg.ClientsPerTaskInc = synthClients, synthClients, 0
		sc.cfg.TrainPerDomain, sc.cfg.TestPerDomain, sc.cfg.EvalBatch = 56, 14, 14
		if sz == sizeSmoke {
			shape := *wl.synth
			shape.elems = 1024
			sc.wl.synth = &shape
		}
	}
	sc.cfg.Workers = localWorkers
	return sc, nil
}

// newAlg constructs the method. Coordinator and workers call it with the
// same scenario, so their initial weights agree.
func (sc *scenario) newAlg() (fl.Algorithm, error) {
	if sc.wl.synth != nil {
		return newSynthAlg(*sc.wl.synth, sc.seed)
	}
	return experiments.NewMethod(paperMethod, sc.modelCfg, len(sc.domains), sc.seed)
}
