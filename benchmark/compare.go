package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare for one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// spread is a sample's interquartile range as a share of its median; every
// metric with a relative bound is positive.
func (s sample) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// judge compares a metric's two samples against its bound. worse is how
// far the second median is on the bad side of the first, in the bound's
// terms: a share of the first median, or the metric's unit when the bound
// is absolute. A pair whose own run-to-run spread is wider than the bound
// cannot show either a regression or its absence.
func judge(d metricDef, a, b sample) (worse float64, verdict string) {
	worse = b.Median - a.Median
	if d.better == higher {
		worse = -worse
	}
	noise := max(a.Q3-a.Q1, b.Q3-b.Q1)
	if !d.absolute {
		if a.Median <= 0 || b.Median <= 0 {
			return 0, verdictUnresolved // not a measurement
		}
		worse /= a.Median
		noise = max(a.spread(), b.spread())
	}
	switch {
	case noise > d.bound:
		return worse, verdictUnresolved
	case worse > d.bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareResults prints one row per (workload, end-to-end metric) present in
// both files and returns how many rows regressed and how many could not be
// resolved.
func compareResults(w io.Writer, a, b *resultFile) (regressed, unresolved int) {
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %9s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			sa, okA := wa.EndToEnd[d.name]
			sb, okB := wb.EndToEnd[d.name]
			if !okA || !okB {
				continue
			}
			worse, v := judge(d, sa, sb)
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			unit := "%"
			scale := 100.0
			if d.absolute {
				unit, scale = d.unit, 1
			}
			fmt.Fprintf(w, "%-18s %-22s %14.6g %14.6g %+8.2f%s %8.2f%s  %s   a [%.6g, %.6g] n=%d  b [%.6g, %.6g] n=%d\n",
				wa.Name, d.name, sa.Median, sb.Median, worse*scale, unit, d.bound*scale, unit, v,
				sa.Q1, sa.Q3, sa.N, sb.Q1, sb.Q3, sb.N)
		}
		if wa.MatrixHash != wb.MatrixHash || wa.StateHash != wb.StateHash {
			fmt.Fprintf(w, "%-18s outputs differ: a matrix %s state %s, b matrix %s state %s\n", wa.Name, wa.MatrixHash, wa.StateHash, wb.MatrixHash, wb.StateHash)
		}
	}
	return regressed, unresolved
}

func compareMain(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(paths))
	}
	a, err := readResult(paths[0])
	if err != nil {
		return err
	}
	b, err := readResult(paths[1])
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Size != b.Size {
		fmt.Printf("note: comparing seed %d %s size with seed %d %s size; exact counts and hashes are expected to differ\n", a.Seed, a.Size, b.Seed, b.Size)
	}
	regressed, unresolved := compareResults(os.Stdout, a, b)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressed)
	}
	return nil
}
