// Office ablation: reproduces Table VII's component study on the
// OfficeCaltech10 stand-in — every combination of RefFiL's three components
// (CDAP, GPL, DPCL) runs under identical federation, and the printed table
// shows what each contributes over the Finetune-equivalent baseline. Two
// design-choice ablations beyond the paper's tables follow on the same
// setup: FINCH prompt clustering (Eq. 7–8) against plain per-class prompt
// averaging, which §IV argues loses domain-characterized features, and a
// sweep of the generated prompt length p, which the paper fixes implicitly.
//
//	go run ./examples/office_ablation          # smoke scale (~seconds)
//	go run ./examples/office_ablation -scale mini
package main

import (
	"flag"
	"fmt"
	"os"

	"reffil/internal/core"
	"reffil/internal/experiments"
)

func main() {
	scaleF := flag.String("scale", "smoke", "run scale (smoke, mini, paper)")
	seed := flag.Int64("seed", 17, "random seed")
	flag.Parse()
	if err := run(*scaleF, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "office_ablation:", err)
		os.Exit(1)
	}
}

func run(scaleF string, seed int64) error {
	scale, err := experiments.ParseScale(scaleF)
	if err != nil {
		return err
	}
	fmt.Printf("running the Table VII ablation at %s scale...\n", scale)
	res, err := experiments.RunTableVII(scale, seed, func(msg string) {
		fmt.Fprintln(os.Stderr, msg)
	})
	if err != nil {
		return err
	}
	if err := experiments.PrintAblationTable(os.Stdout,
		fmt.Sprintf("\nTable VII — RefFiL component ablation (OfficeCaltech10, scale %s)", scale), res); err != nil {
		return err
	}

	variant := func(name string, mutate func(*core.Config)) (experiments.Result, error) {
		return experiments.RunVariant(name, "officecaltech10", scale, experiments.OrderA, seed, mutate, nil)
	}
	fmt.Printf("\nAblation: global prompt clustering (scale %s)\n", scale)
	for _, v := range []struct {
		name, label string
		mutate      func(*core.Config)
	}{
		{"RefFiL(FINCH)", "FINCH clustering", nil},
		{"RefFiL(mean)", "plain averaging", func(c *core.Config) { c.DisableClustering = true }},
	} {
		r, err := variant(v.name, v.mutate)
		if err != nil {
			return err
		}
		fmt.Printf("  %-17s Avg %.2f%%  Last %.2f%%\n", v.label+":", r.Summary.Avg*100, r.Summary.Last*100)
	}
	fmt.Printf("\nAblation: CDAP prompt length (scale %s)\n", scale)
	for _, p := range []int{1, 2, 4, 8} {
		r, err := variant(fmt.Sprintf("RefFiL(p=%d)", p), func(c *core.Config) { c.PromptLen = p })
		if err != nil {
			return err
		}
		fmt.Printf("  p=%d: Avg %.2f%%  Last %.2f%%\n", p, r.Summary.Avg*100, r.Summary.Last*100)
	}
	return nil
}
