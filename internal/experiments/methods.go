// Package experiments is the benchmark harness that regenerates every table
// of the paper's evaluation section (Tables I–VIII): it constructs methods
// by name, sizes federated runs per scale preset, executes them under the
// shared engine, and prints rows in the paper's layout.
package experiments

import (
	"fmt"
	"math/rand"

	"reffil/internal/baselines"
	"reffil/internal/core"
	"reffil/internal/fl"
	"reffil/internal/model"
)

// Method names in the paper's table order. "†" variants are spelled
// "+pool" for shell friendliness.
var MethodNames = []string{
	"Finetune",
	"FedLwF",
	"FedEWC",
	"FedL2P",
	"FedL2P+pool",
	"FedDualPrompt",
	"FedDualPrompt+pool",
	"RefFiL",
}

// NewMethod constructs any of the paper's eight methods over a backbone for
// the given class count and task horizon. Seeds make construction (weight
// init) deterministic per method.
func NewMethod(name string, modelCfg model.Config, maxTasks int, seed int64) (fl.Algorithm, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "Finetune":
		return baselines.NewFinetune(modelCfg, rng)
	case "FedLwF":
		return baselines.NewFedLwF(modelCfg, rng)
	case "FedEWC":
		return baselines.NewFedEWC(modelCfg, rng)
	case "FedL2P":
		return baselines.NewFedL2P(modelCfg, false, rng)
	case "FedL2P+pool":
		return baselines.NewFedL2P(modelCfg, true, rng)
	case "FedDualPrompt":
		return baselines.NewFedDualPrompt(modelCfg, maxTasks, false, rng)
	case "FedDualPrompt+pool":
		return baselines.NewFedDualPrompt(modelCfg, maxTasks, true, rng)
	case "RefFiL":
		cfg := core.DefaultConfig(modelCfg.Classes, maxTasks)
		cfg.Model = modelCfg
		return core.New(cfg, rng)
	default:
		return nil, fmt.Errorf("experiments: unknown method %q (want one of %v)", name, MethodNames)
	}
}

// NewRefFiLVariant constructs a RefFiL ablation (Table VII) or temperature
// variant (Table VIII).
func NewRefFiLVariant(modelCfg model.Config, maxTasks int, seed int64, mutate func(*core.Config)) (fl.Algorithm, error) {
	cfg := core.DefaultConfig(modelCfg.Classes, maxTasks)
	cfg.Model = modelCfg
	if mutate != nil {
		mutate(&cfg)
	}
	return core.New(cfg, rand.New(rand.NewSource(seed)))
}
