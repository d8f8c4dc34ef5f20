package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"reffil/internal/core"
)

// PrintMatrix renders one run's accuracy-matrix block: a header naming the
// method, dataset and task count, the recorded lower triangle, the
// Avg/Last/FGT/BwT line and the final global model's state hash.
// cmd/reffil and cmd/fedserver both print it, so an in-process and a
// networked run of the same flags compare byte for byte, weights included.
func PrintMatrix(w io.Writer, res Result) error {
	sum, mat := res.Summary, res.Matrix
	fmt.Fprintf(w, "accuracy matrix (%s on %s, %d tasks):\n", res.Method, res.Dataset, mat.T)
	mat.FprintTriangle(w)
	_, err := fmt.Fprintf(w, "Avg %.2f%%  Last %.2f%%  FGT %.3f  BwT %.3f\nstate %s\n", sum.Avg*100, sum.Last*100, sum.FGT, sum.BwT, res.State)
	return err
}

// PrintSummaryTable renders the Tables I/II layout: one row per method,
// Avg/Last (in percent) per dataset, with ∆ columns relative to RefFiL.
func PrintSummaryTable(w io.Writer, title string, datasets []string, res MainComparison) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprint(tw, "Method")
	for _, ds := range datasets {
		fmt.Fprintf(tw, "\t%s Avg\t∆\t%s Last\t∆", ds, ds)
	}
	fmt.Fprintln(tw)
	for _, m := range MethodNames {
		fmt.Fprint(tw, displayName(m))
		for _, ds := range datasets {
			r, ok := res[ds][m]
			ref, okRef := res[ds]["RefFiL"]
			if !ok || !okRef {
				return fmt.Errorf("experiments: missing result for %s/%s", ds, m)
			}
			dAvg := (ref.Summary.Avg - r.Summary.Avg) * 100
			dLast := (ref.Summary.Last - r.Summary.Last) * 100
			if m == "RefFiL" {
				fmt.Fprintf(tw, "\t%.2f\t-\t%.2f\t-", r.Summary.Avg*100, r.Summary.Last*100)
			} else {
				fmt.Fprintf(tw, "\t%.2f\t%+.2f\t%.2f\t%+.2f", r.Summary.Avg*100, dAvg, r.Summary.Last*100, dLast)
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// PrintPerTaskTable renders the Tables III/IV layout: per-domain task
// accuracy a_{i,i} for one dataset plus the Avg column.
func PrintPerTaskTable(w io.Writer, title, dataset string, res MainComparison) error {
	byMethod, ok := res[dataset]
	if !ok {
		return fmt.Errorf("experiments: no results for dataset %q", dataset)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	// Header: the domain sequence of any result (all share it).
	var domains []string
	for _, m := range MethodNames {
		if r, ok := byMethod[m]; ok {
			domains = r.Domains
			break
		}
	}
	fmt.Fprint(tw, "Method")
	for _, d := range domains {
		fmt.Fprintf(tw, "\t%s", d)
	}
	fmt.Fprintln(tw, "\tAvg")
	for _, m := range MethodNames {
		r, ok := byMethod[m]
		if !ok {
			return fmt.Errorf("experiments: missing result for %s/%s", dataset, m)
		}
		fmt.Fprint(tw, displayName(m))
		for _, acc := range r.Summary.TaskAcc {
			fmt.Fprintf(tw, "\t%.2f", acc*100)
		}
		fmt.Fprintf(tw, "\t%.2f\n", r.Summary.Avg*100)
	}
	return tw.Flush()
}

// PrintSelectionTable renders the Table V layout: Avg/Last/FGT/BwT per
// method under each selection setup.
func PrintSelectionTable(w io.Writer, title string, res map[string]map[string]Result) error {
	setups := make([]string, 0, len(res))
	for s := range res {
		setups = append(setups, s)
	}
	sort.Strings(setups)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	for _, setup := range setups {
		fmt.Fprintf(tw, "-- %s --\n", setup)
		fmt.Fprintln(tw, "Method\tAvg\tLast\tFGT\tBwT")
		for _, m := range MethodNames {
			r, ok := res[setup][m]
			if !ok {
				return fmt.Errorf("experiments: missing result for %s/%s", setup, m)
			}
			fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.3f\t%.3f\n",
				displayName(m), r.Summary.Avg*100, r.Summary.Last*100, r.Summary.FGT, r.Summary.BwT)
		}
	}
	return tw.Flush()
}

// PrintMetricTable renders a single setup with Avg/Last/FGT/BwT rows
// (Table VI layout).
func PrintMetricTable(w io.Writer, title string, res map[string]Result) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprintln(tw, "Method\tAvg\tLast\tFGT\tBwT")
	for _, m := range MethodNames {
		r, ok := res[m]
		if !ok {
			return fmt.Errorf("experiments: missing result for %s", m)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.3f\t%.3f\n",
			displayName(m), r.Summary.Avg*100, r.Summary.Last*100, r.Summary.FGT, r.Summary.BwT)
	}
	return tw.Flush()
}

// PrintAblationTable renders the Table VII layout with ∆ against the
// component-free baseline.
func PrintAblationTable(w io.Writer, title string, res map[string]Result) error {
	base, ok := res["baseline (none)"]
	if !ok {
		return fmt.Errorf("experiments: ablation results missing the baseline row")
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprintln(tw, "Components\tAvg\t∆Avg\tLast\t∆Last")
	for _, row := range TableVIIRows() {
		r, ok := res[row.Label]
		if !ok {
			return fmt.Errorf("experiments: missing ablation row %q", row.Label)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%+.2f\t%.2f\t%+.2f\n",
			row.Label,
			r.Summary.Avg*100, (r.Summary.Avg-base.Summary.Avg)*100,
			r.Summary.Last*100, (r.Summary.Last-base.Summary.Last)*100)
	}
	return tw.Flush()
}

// PrintTemperatureTable renders the Table VIII layout, including the τ′
// value each configuration reaches at the third task.
func PrintTemperatureTable(w io.Writer, title string, res map[string]Result) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprintln(tw, "Exp\ttau\ttau_min\tgamma\tbeta\ttau'(3rd)\tAvg\tLast")
	for _, row := range TableVIIIRows() {
		r, ok := res[row.Label]
		if !ok {
			return fmt.Errorf("experiments: missing temperature row %q", row.Label)
		}
		tauCol := "-"
		if row.Decay {
			t3, err := core.DecayedTemperature(row.Tau, row.TauMin, row.Gamma, row.Beta, 3)
			if err != nil {
				return err
			}
			tauCol = fmt.Sprintf("%.3f", t3)
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.2f\t%.2f\t%s\t%.2f\t%.2f\n",
			row.Label, row.Tau, row.TauMin, row.Gamma, row.Beta, tauCol,
			r.Summary.Avg*100, r.Summary.Last*100)
	}
	return tw.Flush()
}

// displayName maps internal method ids to the paper's names.
func displayName(m string) string {
	switch m {
	case "FedL2P+pool":
		return "FedL2P†"
	case "FedDualPrompt+pool":
		return "FedDualPrompt†"
	default:
		return m
	}
}
