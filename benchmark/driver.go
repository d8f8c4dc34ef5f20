package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// spawnRun re-executes this binary as a child that runs the workload once,
// so peak RSS and set-up time belong to that run alone. The child gets
// GOMAXPROCS=2 whatever the machine has.
func spawnRun(wl workload, seed int64, sz size, opt runOptions) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", wl.name, "-seed", strconv.FormatInt(seed, 10), "-out", opt.outDir}
	if sz == sizeSmoke {
		args = append(args, "-smoke")
	}
	if opt.traced {
		args = append(args, "-traced")
	}
	if opt.localRef {
		args = append(args, "-local-ref")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchProcs))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w: %s", wl.name, err, bytes.TrimSpace(stderr.Bytes()))
	}
	var res runResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s: reading child result: %w", wl.name, err)
	}
	return &res, nil
}

// sample summarizes a metric over a workload's timed runs.
type sample struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) sample {
	s := sample{Median: median(values), N: len(values), Values: values}
	s.Q1, s.Q3 = s.Median, s.Median
	if len(values) >= 2 {
		s.Q1, s.Q3 = quartiles(values)
	}
	return s
}

// check is one output check and its verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// workloadResult is one workload's part of the result file.
type workloadResult struct {
	Name string `json:"name"`
	// EndToEnd holds every end-to-end metric defined on this workload.
	EndToEnd map[string]sample `json:"end_to_end"`
	// PerLayer holds every per-layer metric, the median over the traced
	// runs when there were several.
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	MatrixHash string             `json:"matrix_hash"`
	StateHash  string             `json:"state_hash"`
	// Attempted and Failed count client updates.
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Checks    []check `json:"checks"`
	// Claims are the properties the workload was built to have; a claim
	// that is not met is reported, and does not fail a run.
	Claims []check `json:"claims,omitempty"`
}

// collected is everything the children of one workload reported.
type collected struct {
	wl      workload
	timed   []*runResult
	traced  []*runResult
	ref     *runResult // same scenario through LocalRunner
	crashes []string
}

// endToEndOf derives the end-to-end metrics of one run.
func endToEndOf(r *runResult) map[string]float64 {
	updates := float64(r.Updates)
	m := map[string]float64{
		"run_wall_s":           r.WallS,
		"client_updates_per_s": updates / r.WallS,
		"alloc_mb_per_update":  float64(r.AllocBytes) / 1e6 / updates,
		"allocs_per_update":    float64(r.Mallocs) / updates,
		"peak_rss_mb":          float64(r.PeakRSSKB) / 1024,
		"setup_s":              r.SetupS,
	}
	if r.Wire != nil {
		m["wire_mb_per_round"] = wireMBPerRound(r)
	}
	return m
}

func wireMBPerRound(r *runResult) float64 {
	return float64(r.Wire.BroadcastBytes+r.Wire.UploadBytes) / 1e6 / float64(r.Rounds)
}

// nominalUpdates is how many client updates a run of the workload attempts;
// it sizes the failure count of a run that died before it could say.
func nominalUpdates(c *collected, sz size) int {
	if len(c.timed) > 0 {
		return c.timed[0].Updates
	}
	if len(c.traced) > 0 {
		return c.traced[0].Updates
	}
	sc, err := newScenario(c.wl, 0, sz)
	if err != nil {
		return 1
	}
	return len(sc.domains) * sc.cfg.Rounds * sc.cfg.SelectPerRound
}

// evaluate runs the output checks over a workload's runs and summarizes
// its metrics.
func evaluate(c *collected, sz size) workloadResult {
	out := workloadResult{Name: c.wl.name, EndToEnd: map[string]sample{}}
	runs := append(append([]*runResult(nil), c.timed...), c.traced...)
	nominal := nominalUpdates(c, sz)
	out.Attempted = len(c.crashes) * nominal
	out.Failed = out.Attempted
	for _, msg := range c.crashes {
		out.Checks = append(out.Checks, check{Name: "run_completed", Detail: msg})
	}
	if len(runs) == 0 {
		return out
	}
	for _, r := range runs {
		out.Attempted += r.Updates
	}
	fail := func(rs []*runResult) {
		for _, r := range rs {
			out.Failed += r.Updates
		}
	}

	// Every run of a seed must produce the same bits.
	first := runs[0]
	out.MatrixHash, out.StateHash = first.MatrixHash, first.StateHash
	agree := check{Name: "reps_agree", OK: true,
		Detail: fmt.Sprintf("%d runs: matrix %s state %s", len(runs), first.MatrixHash, first.StateHash)}
	for _, r := range runs[1:] {
		if r.MatrixHash != first.MatrixHash || r.StateHash != first.StateHash {
			agree.OK = false
			agree.Detail = fmt.Sprintf("matrix %s state %s, then matrix %s state %s", first.MatrixHash, first.StateHash, r.MatrixHash, r.StateHash)
		}
	}
	out.Checks = append(out.Checks, agree)
	allFailed := !agree.OK

	// The TCP path must give the same model as the local one.
	if c.wl.tcp {
		same := check{Name: "matches_local"}
		switch {
		case c.ref == nil:
			same.Detail = "no LocalRunner reference run"
		case c.ref.MatrixHash != first.MatrixHash || c.ref.StateHash != first.StateHash:
			same.Detail = fmt.Sprintf("local matrix %s state %s, TCP matrix %s state %s", c.ref.MatrixHash, c.ref.StateHash, first.MatrixHash, first.StateHash)
		default:
			same.OK = true
			same.Detail = "LocalRunner reference has the same matrix and final state"
		}
		out.Checks = append(out.Checks, same)
		allFailed = allFailed || !same.OK
	}
	if allFailed {
		fail(runs)
	}

	var bad []*runResult
	for _, r := range runs {
		if len(r.Failures) > 0 {
			out.Checks = append(out.Checks, check{Name: "run_output", Detail: fmt.Sprint(r.Failures)})
			bad = append(bad, r)
		}
	}
	if len(bad) == 0 {
		out.Checks = append(out.Checks, check{Name: "run_output", OK: true, Detail: "wire counts and worker exits as expected in every run"})
	} else if !allFailed {
		fail(bad)
	}

	values := map[string][]float64{}
	for _, r := range c.timed {
		for name, v := range endToEndOf(r) {
			values[name] = append(values[name], v)
		}
	}
	for name, vs := range values {
		out.EndToEnd[name] = summarize(vs)
	}
	if c.wl.synth == nil {
		out.EndToEnd["avg_acc_pct"] = summarize([]float64{first.AvgAcc * 100})
	}
	out.EndToEnd["failed_share"] = summarize([]float64{float64(out.Failed) / float64(out.Attempted)})

	if len(c.traced) > 0 {
		out.PerLayer = map[string]float64{}
		for _, d := range perLayer {
			var vs []float64
			for _, r := range c.traced {
				vs = append(vs, r.Layers[d.name])
			}
			out.PerLayer[d.name] = median(vs)
		}
		if len(c.timed) > 0 {
			var walls []float64
			for _, r := range c.traced {
				walls = append(walls, r.WallS)
			}
			base := out.EndToEnd["run_wall_s"].Median
			out.PerLayer["trace.overhead_pct"] = (median(walls) - base) / base * 100
		}
		if sz == sizeFull {
			// The claims are about the recorded size: a smoke run is mostly
			// fixed costs.
			out.Claims = claims(c, out)
		}
	}
	return out
}

// claims checks what each workload was built to stress, and that the
// traced budget is honest.
func claims(c *collected, res workloadResult) []check {
	layer := res.PerLayer
	wall := c.traced[0].WallS * 1000
	within := func(name string, ok bool, format string, args ...any) check {
		return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
	}
	out := []check{
		within("budget_sums", layer["run.unattributed_ms"] <= 0.05*wall,
			"run.unattributed_ms %.1f of %.1f ms wall (want at most 5%%)", layer["run.unattributed_ms"], wall),
	}
	if len(c.timed) > 0 {
		lo, hi := c.timed[0].WallS, c.timed[0].WallS
		for _, r := range c.timed {
			lo, hi = min(lo, r.WallS), max(hi, r.WallS)
		}
		t := c.traced[0].WallS
		out = append(out, within("trace_is_cheap", t >= lo*0.97 && t <= hi*1.03,
			"traced wall %.3f s, untraced %.3f..%.3f s widened by 3%%", t, lo, hi))
	}
	share, exposed := layer["alg.local_train_core_share"], layer["transport.exposed_share"]
	switch {
	case !c.wl.tcp:
		out = append(out, within("compute_bound", share >= 0.8 && exposed <= 0.1,
			"local_train_core_share %.3f (want >= 0.8), exposed_share %.3f (want <= 0.1)", share, exposed))
	case c.wl.synth != nil && c.wl.synth.changed == c.wl.synth.keys:
		out = append(out, within("comms_bound", share <= 0.2 && exposed >= 0.6,
			"local_train_core_share %.3f (want <= 0.2), exposed_share %.3f (want >= 0.6)", share, exposed))
	}
	return out
}

// envInfo is the machine the numbers were taken on, and whether it was
// quiet enough to trust them.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	CPU        string  `json:"cpu_model"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// Noisy: the 1-minute load average exceeded nproc at the start or the
	// end. Degraded: fewer than the two cores the load shape assumes.
	Noisy    bool `json:"noisy"`
	Degraded bool `json:"degraded"`
}

// resultFile is what the all-workload mode writes and -compare reads.
type resultFile struct {
	Env       envInfo          `json:"env"`
	Seed      int64            `json:"seed"`
	Size      string           `json:"size"`
	Reps      int              `json:"reps"`
	Correct   bool             `json:"correct"`
	Workloads []workloadResult `json:"workloads"`
}

// suiteMain is the one command: every workload, reps timed runs each,
// interleaved round-robin so machine drift hits all workloads alike, and a
// traced run each; prints every metric, verifies outputs, writes the result
// file, and fails if a check failed.
func suiteMain(seed int64, reps int, sz size, outDir string) error {
	sizeName := "full"
	if sz == sizeSmoke {
		sizeName, reps = "smoke", 1
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	env := startEnv()
	printEnv(os.Stdout, env)
	all := make([]*collected, len(workloads))
	for i, wl := range workloads {
		all[i] = &collected{wl: wl}
	}
	progress := func(c *collected, kind string, r *runResult, err error) {
		if err != nil {
			c.crashes = append(c.crashes, err.Error())
			fmt.Printf("  %-18s %-7s FAILED: %v\n", c.wl.name, kind, err)
			return
		}
		fmt.Printf("  %-18s %-7s %.3f s\n", c.wl.name, kind, r.WallS)
	}
	fmt.Printf("\nruns (seed %d, %s size)\n", seed, sizeName)
	for rep := 0; rep < reps; rep++ {
		for _, c := range all {
			r, err := spawnRun(c.wl, seed, sz, runOptions{outDir: outDir})
			progress(c, "timed", r, err)
			if err == nil {
				c.timed = append(c.timed, r)
			}
		}
		if rep != (reps-1)/2 {
			continue
		}
		// The traced runs go in the middle of the timed ones, so that drift
		// of the machine over the minutes a suite takes is not read as the
		// cost or the gain of tracing.
		for _, c := range all {
			r, err := spawnRun(c.wl, seed, sz, runOptions{traced: true, outDir: outDir})
			progress(c, "traced", r, err)
			if err == nil {
				c.traced = append(c.traced, r)
			}
		}
	}
	// References: tcp_reffil_pacs is local_reffil_pacs's scenario, which
	// has already run; the synthetic scenarios run once more, locally.
	for _, c := range all {
		if !c.wl.tcp {
			continue
		}
		if c.wl.synth == nil && len(all[0].timed) > 0 {
			c.ref = all[0].timed[0]
			continue
		}
		r, err := spawnRun(c.wl, seed, sz, runOptions{localRef: true, outDir: outDir})
		progress(c, "ref", r, err)
		c.ref = r
	}

	out := resultFile{Seed: seed, Size: sizeName, Reps: reps, Correct: true}
	for _, c := range all {
		res := evaluate(c, sz)
		out.Workloads = append(out.Workloads, res)
		printWorkload(os.Stdout, res)
		if res.Failed > 0 {
			out.Correct = false
		}
	}
	// The sparse row must actually be the cheap direction of the wire layer.
	dense, sparse := out.Workloads[2].EndToEnd["wire_mb_per_round"], out.Workloads[3].EndToEnd["wire_mb_per_round"]
	if dense.N > 0 && sparse.N > 0 {
		fmt.Printf("\nclaim sparse_is_cheap: %s  wire_mb_per_round sparse %.3f vs dense %.3f (want at most a quarter)\n",
			verdict(sparse.Median <= dense.Median/4), sparse.Median, dense.Median)
	}
	out.Env = finishEnv(env)
	fmt.Println()
	printEnv(os.Stdout, out.Env)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d.json", sizeName, seed))
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("result written to %s; traces in %s/<workload>.trace.json\n", path, outDir)
	if !out.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// contractMain runs one workload for about the given number of seconds and
// prints, as the last line of standard output, the one JSON object the
// harness that drives this benchmark reads.
func contractMain(name string, seed int64, seconds float64, trace bool, outDir string) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	c := &collected{wl: wl}
	start := time.Now()
	for rep := 0; ; rep++ {
		// Tracing alternates with plain runs: the overhead needs both.
		opt := runOptions{traced: trace && rep%2 == 1, outDir: outDir}
		r, err := spawnRun(wl, seed, sizeFull, opt)
		switch {
		case err != nil:
			c.crashes = append(c.crashes, err.Error())
		case opt.traced:
			c.traced = append(c.traced, r)
		default:
			c.timed = append(c.timed, r)
		}
		enough := !trace || rep >= 1
		if enough && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	if wl.tcp {
		if c.ref, err = spawnRun(wl, seed, sizeFull, runOptions{localRef: true, outDir: outDir}); err != nil {
			c.crashes = append(c.crashes, "reference: "+err.Error())
		}
	}
	res := evaluate(c, sizeFull)
	printWorkload(os.Stdout, res)

	return json.NewEncoder(os.Stdout).Encode(contractLine(res, trace))
}

// contractOutput is the object the driving harness reads from the last
// line: whether every output check passed, client updates attempted and
// failed, and the end-to-end or the per-layer metrics.
type contractOutput struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(res workloadResult, trace bool) contractOutput {
	line := contractOutput{Correct: res.Failed == 0, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]contractValue{}}
	if trace {
		for _, d := range perLayer {
			line.Metrics[d.name] = contractValue{res.PerLayer[d.name], d.unit}
		}
		return line
	}
	for _, d := range endToEnd {
		if d.contract {
			line.Metrics[d.name] = contractValue{res.EndToEnd[d.name].Median, d.unit}
		}
	}
	return line
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "NOT MET"
}

// printWorkload prints every metric of a workload by name, with its unit.
func printWorkload(w io.Writer, res workloadResult) {
	fmt.Fprintf(w, "\n== %s\n", res.Name)
	fmt.Fprintf(w, "  end-to-end, tracing off: median [q1, q3] n\n")
	for _, d := range endToEnd {
		s, ok := res.EndToEnd[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "    %-28s %14.6g %-6s [%.6g, %.6g] n=%d\n", d.name, s.Median, d.unit, s.Q1, s.Q3, s.N)
	}
	if res.PerLayer != nil {
		fmt.Fprintf(w, "  per-layer, traced run\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "    %-28s %14.6g %s\n", d.name, res.PerLayer[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "  output checks: %d of %d client updates failed; matrix %s state %s\n", res.Failed, res.Attempted, res.MatrixHash, res.StateHash)
	for _, c := range res.Checks {
		fmt.Fprintf(w, "    %-7s %-14s %s\n", map[bool]string{true: "ok", false: "FAILED"}[c.OK], c.Name, c.Detail)
	}
	for _, c := range res.Claims {
		fmt.Fprintf(w, "    %-7s %-14s %s\n", verdict(c.OK), c.Name, c.Detail)
	}
}
