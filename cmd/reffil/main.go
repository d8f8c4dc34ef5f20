// Command reffil runs one federated domain-incremental learning experiment:
// a single method on a single dataset family at a chosen scale, printing
// per-task progress, the accuracy matrix, the paper's summary metrics and
// the final weights' state hash.
//
// Usage:
//
//	reffil -method RefFiL -dataset pacs -scale mini -order A -seed 1
//
// Methods: Finetune, FedLwF, FedEWC, FedL2P, FedL2P+pool, FedDualPrompt,
// FedDualPrompt+pool, RefFiL.
// Datasets: digitsfive, officecaltech10, pacs, feddomainnet.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"reffil/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reffil:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		method  = flag.String("method", "RefFiL", "method to run ("+strings.Join(experiments.MethodNames, ", ")+")")
		dataset = flag.String("dataset", "officecaltech10", "dataset family (digitsfive, officecaltech10, pacs, feddomainnet)")
		scaleF  = flag.String("scale", "mini", "run scale (smoke, mini, paper)")
		orderF  = flag.String("order", "A", "domain order (A = paper default, B = shuffled)")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "concurrent clients per round (0 = all CPU cores, 1 = sequential; results are identical)")
		quiet   = flag.Bool("quiet", false, "suppress per-task progress")
	)
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleF)
	if err != nil {
		return err
	}
	order := experiments.OrderA
	switch strings.ToUpper(*orderF) {
	case "A":
	case "B":
		order = experiments.OrderB
	default:
		return fmt.Errorf("unknown order %q (want A or B)", *orderF)
	}
	progress := func(msg string) { fmt.Println(msg) }
	if *quiet {
		progress = nil
	}

	if *workers < 0 {
		return fmt.Errorf("workers must be non-negative, got %d", *workers)
	}
	ov := experiments.NoOverrides
	ov.Workers = *workers

	res, err := experiments.RunOne(*method, *dataset, scale, order, ov, *seed, progress)
	if err != nil {
		return err
	}
	fmt.Printf("\nmethod=%s dataset=%s order=%s scale=%s seed=%d\n", res.Method, res.Dataset, order, scale, *seed)
	fmt.Printf("domains: %s\n", strings.Join(res.Domains, " -> "))
	return experiments.PrintMatrix(os.Stdout, res)
}
