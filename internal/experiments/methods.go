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

// methodFlags maps the shell-friendly -method flag values used by
// cmd/fedserver and cmd/fedworker to the table names above. The networked
// path runs the pool-deactivated L2P/DualPrompt variants — the paper's
// default fair comparison.
var methodFlags = map[string]string{
	"finetune":   "Finetune",
	"lwf":        "FedLwF",
	"ewc":        "FedEWC",
	"l2p":        "FedL2P",
	"dualprompt": "FedDualPrompt",
	"reffil":     "RefFiL",
}

// MethodFlags lists the -method values accepted by NewMethodFromFlag, in a
// stable order for usage strings.
func MethodFlags() []string {
	return []string{"reffil", "finetune", "lwf", "ewc", "l2p", "dualprompt"}
}

// NewMethodFromFlag constructs a method from its CLI flag name. Coordinator
// and workers of one federation must call it with identical arguments: the
// construction seed fixes the initial weights, and broadcast state only
// covers what FedAvg aggregates.
func NewMethodFromFlag(flag string, modelCfg model.Config, maxTasks int, seed int64) (fl.Algorithm, error) {
	name, ok := methodFlags[flag]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown method flag %q (want one of %v)", flag, MethodFlags())
	}
	return NewMethod(name, modelCfg, maxTasks, seed)
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
