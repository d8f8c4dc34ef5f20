package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"reffil/internal/checkpoint"
	"reffil/internal/core"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/metrics"
	"reffil/internal/nn"
	"reffil/internal/telemetry"
)

// Order selects the domain sequence: OrderA is the paper's default
// (Tables I, III, V, VI, VII), OrderB the shuffled order (Tables II, IV,
// VIII).
type Order int

// Domain orders.
const (
	OrderA Order = iota + 1
	OrderB
)

// String renders the order name.
func (o Order) String() string {
	if o == OrderB {
		return "B"
	}
	return "A"
}

// Domains returns the domain sequence for a family under this order.
func (o Order) Domains(f *data.Family) []string {
	if o == OrderB {
		return f.AlternateDomainOrder()
	}
	return append([]string(nil), f.Domains...)
}

// Result is the outcome of one (method, dataset) federated run: the
// accuracy matrix, the summary computed from it, and the final global
// model's metrics.HashState.
type Result struct {
	Method  string
	Dataset string
	Domains []string
	Matrix  *metrics.Matrix
	Summary metrics.Summary
	State   string
}

// Overrides tweaks the engine configuration for special table setups
// (Table V's selection sweeps, Table VI's Sel-10/90% run).
type Overrides struct {
	InitialClients    int
	SelectPerRound    int
	ClientsPerTaskInc int
	TransferFrac      float64 // <0 means "keep default"
	// Workers caps concurrent client training per round; 0 keeps the
	// engine default (NumCPU). Results are identical at any setting.
	Workers int
}

func (ov Overrides) apply(cfg *fl.Config) {
	if ov.InitialClients > 0 {
		cfg.InitialClients = ov.InitialClients
	}
	if ov.Workers > 0 {
		cfg.Workers = ov.Workers
	}
	if ov.SelectPerRound > 0 {
		cfg.SelectPerRound = ov.SelectPerRound
	}
	if ov.ClientsPerTaskInc > 0 {
		cfg.ClientsPerTaskInc = ov.ClientsPerTaskInc
	}
	if ov.TransferFrac >= 0 {
		cfg.TransferFrac = ov.TransferFrac
	}
}

// NoOverrides keeps the scale defaults.
var NoOverrides = Overrides{TransferFrac: -1}

// RunOne executes one method on one dataset family at the given scale and
// domain order, returning the paper's metrics.
func RunOne(method, dataset string, scale Scale, order Order, ov Overrides, seed int64, progress func(string)) (Result, error) {
	r, err := NewRun(method, dataset, scale, order, ov, seed, nil, "")
	if err != nil {
		return Result{}, err
	}
	return r.Execute(nil, progress, nil)
}

// RunVariant executes a RefFiL configuration variant (ablations,
// temperature sweeps) on one dataset; the result is labelled, not named
// after the method.
func RunVariant(label, dataset string, scale Scale, order Order, seed int64,
	mutate func(*core.Config), progress func(string)) (Result, error) {
	r, err := NewRun("RefFiL", dataset, scale, order, NoOverrides, seed, mutate, "")
	if err != nil {
		return Result{}, err
	}
	res, err := r.Execute(nil, progress, nil)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", label, err)
	}
	res.Method = label
	return res, nil
}

// Run is one named federated run, built and not yet executed. Every entry
// point builds its run here — reffil and the table harness, fedserver, and
// fedworker for the algorithm alone — so (method, dataset, scale, seed) name
// the same run everywhere, and a coordinator and its workers that pass the
// same arguments construct the same initial weights.
type Run struct {
	// Alg is the run's algorithm: the model a networked runner trains
	// replicas of, and whose global weights Execute reports.
	Alg fl.Algorithm

	method, dataset string
	scale           Scale
	seed            int64
	family          *data.Family
	domains         []string
	cfg             fl.Config
	// snapshot is the run-state file Execute keeps current, empty when the
	// run keeps none; resume is the snapshot found there, nil for a fresh
	// start.
	snapshot string
	resume   *fl.ResumeState
}

// NewRun assembles the algorithm, dataset family, domain sequence and engine
// config of one run. mutate, when non-nil, makes the method a RefFiL variant
// (see NewRefFiLVariant).
//
// dir, when non-empty, is the run's snapshot directory: NewRun creates it
// and loads its run.ckpt, which Execute then resumes from and keeps
// current. A missing file is a fresh start; a snapshot another (method,
// dataset, scale, seed) wrote is refused, and so is one that does not load.
// A snapshot is stamped with those four alone, so a run that differs from
// the scale's defaults in anything else — domain order B, a RefFiL variant,
// overrides other than Workers — keeps none: NewRun refuses a dir for it
// rather than resume one run from another's snapshot.
func NewRun(method, dataset string, scale Scale, order Order, ov Overrides, seed int64,
	mutate func(*core.Config), dir string) (*Run, error) {
	if dir != "" {
		ov.Workers = NoOverrides.Workers
		if order != OrderA || mutate != nil || ov != NoOverrides {
			return nil, fmt.Errorf("experiments: a snapshot directory needs domain order A, no variant and no overrides but Workers: a snapshot does not record them")
		}
	}
	family, err := scale.Family(dataset)
	if err != nil {
		return nil, err
	}
	r := &Run{method: method, dataset: dataset, scale: scale, seed: seed, family: family, domains: order.Domains(family)}
	modelCfg := scale.ModelConfig(family.Classes)
	if mutate != nil {
		r.Alg, err = NewRefFiLVariant(modelCfg, len(r.domains), seed, mutate)
	} else {
		r.Alg, err = NewMethod(method, modelCfg, len(r.domains), seed)
	}
	if err != nil {
		return nil, err
	}
	r.cfg = scale.EngineConfig(dataset, seed)
	ov.apply(&r.cfg)
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating snapshot directory: %w", err)
	}
	r.snapshot = filepath.Join(dir, "run.ckpt")
	rs, err := checkpoint.LoadRunStateFile(r.snapshot)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return r, nil
	case err != nil:
		return nil, err
	}
	if rs.Method != method || rs.Dataset != dataset || rs.Scale != scale.String() || rs.Seed != seed {
		return nil, fmt.Errorf("%s was written by -method %s -dataset %s -scale %s -seed %d, not -method %s -dataset %s -scale %s -seed %d",
			r.snapshot, rs.Method, rs.Dataset, rs.Scale, rs.Seed, method, dataset, scale, seed)
	}
	r.resume = rs
	return r, nil
}

// Execute runs r on runner (nil selects the in-process LocalRunner),
// reporting progress lines to progress and observations to sink; either may
// be nil. A run with a snapshot directory resumes from the snapshot NewRun
// found there, and rewrites it, stamped with the run's identity, after
// every round and every task.
func (r *Run) Execute(runner fl.EachRunner, progress func(string), sink *telemetry.Sink) (Result, error) {
	eng, err := fl.NewEngineWithRunner(r.cfg, r.Alg, runner)
	if err != nil {
		return Result{}, err
	}
	eng.Progress = progress
	eng.Telemetry = sink
	eng.Resume = r.resume
	if r.resume != nil && progress != nil {
		progress(fmt.Sprintf("resuming from %s at task %d round %d", r.snapshot, r.resume.NextTask, r.resume.NextRound))
	}
	if r.snapshot != "" {
		eng.Checkpoint = func(st fl.ResumeState) error {
			begin := time.Now()
			st.Method, st.Dataset, st.Scale, st.Seed = r.method, r.dataset, r.scale.String(), r.seed
			if err := checkpoint.SaveRunStateFile(r.snapshot, &st); err != nil {
				return err
			}
			if fi, err := os.Stat(r.snapshot); err == nil {
				sink.CheckpointWritten(st.NextTask, st.NextRound, fi.Size(), time.Since(begin))
			}
			return nil
		}
	}
	mat, err := eng.Run(r.family, r.domains)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: %s on %s: %w", r.method, r.dataset, err)
	}
	sum, err := mat.Summarize()
	if err != nil {
		return Result{}, err
	}
	state := metrics.HashState(nn.StateDict(r.Alg.Global()))
	return Result{Method: r.method, Dataset: r.dataset, Domains: r.domains, Matrix: mat, Summary: sum, State: state}, nil
}

// MainComparison holds the Tables I–IV results: dataset -> method -> Result.
type MainComparison map[string]map[string]Result

// RunMainComparison executes every method on the given datasets under one
// domain order: the computation behind Table I+III (order A) and
// Table II+IV (order B).
func RunMainComparison(scale Scale, order Order, datasets []string, seed int64, progress func(string)) (MainComparison, error) {
	out := make(MainComparison, len(datasets))
	for _, ds := range datasets {
		out[ds] = make(map[string]Result, len(MethodNames))
		for _, m := range MethodNames {
			if progress != nil {
				progress(fmt.Sprintf("== %s / %s / order %s / %s ==", ds, m, order, scale))
			}
			res, err := RunOne(m, ds, scale, order, NoOverrides, seed, progress)
			if err != nil {
				return nil, err
			}
			out[ds][m] = res
		}
	}
	return out, nil
}

// SelectionSetup is one column group of Table V.
type SelectionSetup struct {
	Label          string
	SelectPerRound int
	TransferFrac   float64
}

// TableVSetups are the paper's four OfficeCaltech10 configurations.
func TableVSetups() []SelectionSetup {
	return []SelectionSetup{
		{Label: "Sel 8, 80% of M", SelectPerRound: 8, TransferFrac: 0.8},
		{Label: "Sel 2, 80% of M", SelectPerRound: 2, TransferFrac: 0.8},
		{Label: "Sel 5, 50% of M", SelectPerRound: 5, TransferFrac: 0.5},
		{Label: "Sel 5, 90% of M", SelectPerRound: 5, TransferFrac: 0.9},
	}
}

// RunTableV executes the Table V sweep: every method under every
// OfficeCaltech10 selection setup. Returns setup label -> method -> Result.
func RunTableV(scale Scale, seed int64, progress func(string)) (map[string]map[string]Result, error) {
	out := make(map[string]map[string]Result)
	for _, setup := range TableVSetups() {
		out[setup.Label] = make(map[string]Result, len(MethodNames))
		for _, m := range MethodNames {
			if progress != nil {
				progress(fmt.Sprintf("== TableV %s / %s ==", setup.Label, m))
			}
			ov := Overrides{
				// A 10-client pool makes Sel 8 meaningful at every scale.
				InitialClients:    10,
				SelectPerRound:    setup.SelectPerRound,
				ClientsPerTaskInc: 1,
				TransferFrac:      setup.TransferFrac,
			}
			res, err := RunOne(m, "officecaltech10", scale, OrderA, ov, seed, progress)
			if err != nil {
				return nil, err
			}
			out[setup.Label][m] = res
		}
	}
	return out, nil
}

// RunTableVI executes the Table VI run: every method on Digits-Five with
// 10 clients, Sel 10, 90% task transfer, +1 client per task.
func RunTableVI(scale Scale, seed int64, progress func(string)) (map[string]Result, error) {
	out := make(map[string]Result, len(MethodNames))
	for _, m := range MethodNames {
		if progress != nil {
			progress(fmt.Sprintf("== TableVI %s ==", m))
		}
		ov := Overrides{
			InitialClients:    10,
			SelectPerRound:    10,
			ClientsPerTaskInc: 1,
			TransferFrac:      0.9,
		}
		res, err := RunOne(m, "digitsfive", scale, OrderA, ov, seed, progress)
		if err != nil {
			return nil, err
		}
		out[m] = res
	}
	return out, nil
}

// AblationRow is one Table VII configuration.
type AblationRow struct {
	Label           string
	CDAP, GPL, DPCL bool
}

// TableVIIRows are the paper's six component combinations (the first is
// the Finetune-equivalent baseline).
func TableVIIRows() []AblationRow {
	return []AblationRow{
		{Label: "baseline (none)"},
		{Label: "CDAP", CDAP: true},
		{Label: "GPL", GPL: true},
		{Label: "CDAP+GPL", CDAP: true, GPL: true},
		{Label: "GPL+DPCL", GPL: true, DPCL: true},
		{Label: "CDAP+GPL+DPCL", CDAP: true, GPL: true, DPCL: true},
	}
}

// RunTableVII executes the component ablation on OfficeCaltech10.
func RunTableVII(scale Scale, seed int64, progress func(string)) (map[string]Result, error) {
	out := make(map[string]Result)
	for _, row := range TableVIIRows() {
		row := row
		if progress != nil {
			progress(fmt.Sprintf("== TableVII %s ==", row.Label))
		}
		res, err := RunVariant(row.Label, "officecaltech10", scale, OrderA, seed, func(c *core.Config) {
			c.EnableCDAP = row.CDAP
			c.EnableGPL = row.GPL
			c.EnableDPCL = row.DPCL
		}, progress)
		if err != nil {
			return nil, err
		}
		out[row.Label] = res
	}
	return out, nil
}

// TemperatureRow is one Table VIII configuration.
type TemperatureRow struct {
	Label                    string
	Tau, TauMin, Gamma, Beta float64
	Decay                    bool
}

// TableVIIIRows are the paper's sensitivity configurations: five explored
// combinations, the no-decay control, and the paper default.
func TableVIIIRows() []TemperatureRow {
	return []TemperatureRow{
		{Label: "exp1", Tau: 0.5, TauMin: 0.2, Gamma: 0.15, Beta: 0.1, Decay: true},
		{Label: "exp2", Tau: 0.5, TauMin: 0.4, Gamma: 0.05, Beta: 0.05, Decay: true},
		{Label: "exp3", Tau: 0.7, TauMin: 0.3, Gamma: 0.1, Beta: 0.05, Decay: true},
		{Label: "exp4", Tau: 0.9, TauMin: 0.2, Gamma: 0.05, Beta: 0.1, Decay: true},
		{Label: "exp5", Tau: 0.9, TauMin: 0.4, Gamma: 0.05, Beta: 0.01, Decay: true},
		{Label: "w/o tau'", Tau: 0.9, TauMin: 0.3, Gamma: 0.1, Beta: 0.05, Decay: false},
		{Label: "ours", Tau: 0.9, TauMin: 0.3, Gamma: 0.1, Beta: 0.05, Decay: true},
	}
}

// RunTableVIII executes the temperature sensitivity sweep on
// OfficeCaltech10 with domain order B, as the paper does.
func RunTableVIII(scale Scale, seed int64, progress func(string)) (map[string]Result, error) {
	out := make(map[string]Result)
	for _, row := range TableVIIIRows() {
		row := row
		if progress != nil {
			progress(fmt.Sprintf("== TableVIII %s ==", row.Label))
		}
		res, err := RunVariant(row.Label, "officecaltech10", scale, OrderB, seed, func(c *core.Config) {
			c.Tau, c.TauMin, c.Gamma, c.Beta = row.Tau, row.TauMin, row.Gamma, row.Beta
			c.UseTemperatureDecay = row.Decay
		}, progress)
		if err != nil {
			return nil, err
		}
		out[row.Label] = res
	}
	return out, nil
}
