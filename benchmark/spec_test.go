package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkSpec mirrors BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesTables: BENCHMARK.json and the tables in metrics.go and
// scenario.go say the same thing, and every definition is complete.
func TestSpecMatchesTables(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}

	var contract []metricDef
	for _, d := range endToEnd {
		if d.better != lower && d.better != higher || d.unit == "" || d.def == "" {
			t.Errorf("end-to-end metric %s lacks a unit, a direction or a definition", d.name)
		}
		if d.contract {
			contract = append(contract, d)
		}
	}
	compare := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			unique(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %s: unit %q does not match %s", kind, g.Name, g.Unit, unitRE)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s, %s), the benchmark %s (%s, %s)", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: layer metrics carry no bound", kind, g.Name)
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.absolute || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s %s: bound %v, the benchmark's %v (must be a share in (0, 0.25])", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, contract, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	for _, d := range perLayer {
		if d.moves == "" || d.def == "" || d.unit == "" {
			t.Errorf("layer metric %s lacks a unit, a definition or the end-to-end metric it moves", d.name)
		}
	}
	if d, ok := findMetric(contract, "setup_s"); !ok || d.unit != "s" || d.better != lower {
		t.Error("the contract needs setup_s in seconds, lower is better")
	} else {
		for _, o := range contract {
			if o.bound > d.bound {
				t.Errorf("%s has a larger bound than setup_s", o.name)
			}
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

// TestEmittedNamesMatchSpec: what a run prints as its last line has exactly
// the metric names BENCHMARK.json promises, on every workload, and every
// end-to-end value is non-zero.
func TestEmittedNamesMatchSpec(t *testing.T) {
	spec := readSpec(t)
	s := smokeFixture(t)
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, wl := range workloads {
		c := &collected{wl: wl, timed: []*runResult{s.timed[wl.name]}, traced: []*runResult{s.traced[wl.name]}, ref: s.ref[wl.name]}
		res := evaluate(c, sizeSmoke)
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d updates failed: %+v", wl.name, res.Failed, res.Attempted, res.Checks)
		}
		for _, trace := range []bool{false, true} {
			line := contractLine(res, trace)
			want := names(spec.EndToEnd)
			if trace {
				want = names(spec.PerLayer)
			}
			var got []string
			for name, v := range line.Metrics {
				got = append(got, name)
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.name, name)
				}
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: emits %d metrics %v, BENCHMARK.json lists %d", wl.name, trace, len(got), got, len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s trace=%v: emits %s where BENCHMARK.json lists %s", wl.name, trace, got[i], want[i])
				}
			}
			if !line.Correct || line.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d", wl.name, line.Correct, line.Attempted)
			}
		}
		// The suite mode's extra end-to-end metrics exist exactly where
		// they mean something.
		_, hasWire := res.EndToEnd["wire_mb_per_round"]
		_, hasAcc := res.EndToEnd["avg_acc_pct"]
		if hasWire != wl.tcp || hasAcc != (wl.synth == nil) {
			t.Errorf("%s: wire_mb_per_round present=%v, avg_acc_pct present=%v", wl.name, hasWire, hasAcc)
		}
	}
}
