// Command benchmark is the repository's benchmark: four federated workloads
// run end to end, measured from outside the program under test, with one
// traced run per workload that splits the wall clock into a per-layer
// budget. See README.md in this directory.
//
//	go run ./benchmark -seed 1                  every workload, every metric, result JSON
//	go run ./benchmark -smoke                   the same at a tiny size, under 20 s
//	go run ./benchmark -compare a.json b.json   two result files against the bounds
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                            one workload for S seconds; last line is one JSON object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "workload seed: engine configuration, initial weights and the synthetic perturbation derive from it")
		reps     = flag.Int("reps", 5, "timed runs per workload (all-workload mode)")
		smoke    = flag.Bool("smoke", false, "every workload at a tiny size, one timed and one traced run, all checks on")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outDir   = flag.String("out", "benchmark/out", "directory for traces, the result file and temporary checkpoints")
		workload = flag.String("workload", "", "run only this workload, for -seconds, and print one JSON object as the last line")
		seconds  = flag.Float64("seconds", 0, "with -workload: keep starting runs until this many seconds have passed")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of traced runs")

		child    = flag.String("child", "", "internal: run this workload once in this process and print its result")
		traced   = flag.Bool("traced", false, "internal: with -child, decorate the run with spans and run the probes")
		localRef = flag.Bool("local-ref", false, "internal: with -child, run the scenario through LocalRunner as the reference")
	)
	flag.Parse()

	sz := sizeFull
	if *smoke {
		sz = sizeSmoke
	}
	var err error
	switch {
	case *child != "":
		err = childMain(*child, *seed, sz, runOptions{traced: *traced, localRef: *localRef, outDir: *outDir})
	case *compare:
		err = compareMain(flag.Args())
	case *workload != "":
		err = contractMain(*workload, *seed, *seconds, *trace == 1, *outDir)
	default:
		err = suiteMain(*seed, *reps, sz, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func childMain(name string, seed int64, sz size, opt runOptions) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, _, err := runChild(wl, seed, sz, opt)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
