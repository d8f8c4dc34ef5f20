package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"reffil/internal/checkpoint"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/metrics"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// A child sets its scenario up again and again, at least setupMinRepeats
// times and until setupBudget has passed, and reports the median as setup_s:
// a set-up is a millisecond or less on the PACS rows, so one slow dial or one
// page fault must not decide it. With five repeats the medians of twelve
// children of the local row had an interquartile range of 37% of their
// median; with the quarter second, about 290 repeats there, 5%.
const (
	setupMinRepeats = 15
	setupBudget     = 250 * time.Millisecond
)

// runResult is what one child process reports for one run of one workload.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// WallS is the wall clock of Engine.Run; SetupS the median of the
	// child's Setups set-ups, each from the start of construction to the
	// point Engine.Run can be called.
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	Setups int     `json:"setups"`
	// Rounds and Updates count the work the engine dispatched
	// (countingRunner).
	Rounds  int `json:"rounds"`
	Updates int `json:"updates"`
	// AllocBytes and Mallocs are MemStats deltas over Engine.Run.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	PeakRSSKB  int64  `json:"peak_rss_kb"`
	// AvgAcc is metrics.Matrix.Avg().
	AvgAcc     float64          `json:"avg_acc"`
	MatrixHash string           `json:"matrix_hash"`
	StateHash  string           `json:"state_hash"`
	Wire       *transport.Stats `json:"wire,omitempty"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Failures lists the output checks this run failed on its own.
	Failures []string `json:"failures,omitempty"`
}

// runOptions selects how a child runs its workload.
type runOptions struct {
	traced bool
	// localRef runs a TCP workload's scenario through LocalRunner instead:
	// the untimed reference its hashes are compared with.
	localRef bool
	outDir   string
}

// rig is a scenario set up and ready for Engine.Run.
type rig struct {
	sc     *scenario
	alg    fl.Algorithm // undecorated, for hashing and probes
	eng    *fl.Engine
	runner *countingRunner
	rec    *recorder
	fed    *federation
	// ckptBytes is the size of the last checkpoint written.
	ckptBytes int64
}

// federation is the loopback operator path: a coordinator, its pipeline and
// the in-process workers that dialed it.
type federation struct {
	coord *transport.Coordinator
	pipe  *transport.Pipeline
	wg    sync.WaitGroup
	errs  []error
}

// startFederation listens, starts tcpWorkers workers that construct the
// scenario's algorithm themselves and dial in, waits for them and selects
// the codec — what fedserver and fedworker do between launch and round 0.
func startFederation(sc *scenario, alg fl.Algorithm, rec *recorder) (*federation, error) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &federation{coord: coord, errs: make([]error, tcpWorkers)}
	for id := 0; id < tcpWorkers; id++ {
		f.wg.Add(1)
		go func(id int) {
			defer f.wg.Done()
			f.errs[id] = serveWorker(sc, coord.Addr(), id, rec)
		}(id)
	}
	if err := coord.Accept(tcpWorkers, 10*time.Second); err != nil {
		f.stop()
		return nil, err
	}
	f.pipe, err = transport.NewPipeline(coord, alg)
	if err == nil {
		err = f.pipe.UseCodec(wireCodec)
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// serveWorker is one worker: one training goroutine, so the two workers
// together use the two cores.
func serveWorker(sc *scenario, addr string, id int, rec *recorder) error {
	alg, err := sc.newAlg()
	if err != nil {
		return err
	}
	if rec != nil {
		alg = traceAlgorithm(alg, rec, fmt.Sprintf("worker %d", id))
	}
	ex, err := transport.NewExecutor(alg, 1)
	if err != nil {
		return err
	}
	w, err := transport.Dial(addr, id)
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Serve(ex.Handle)
}

// stop says goodbye to the workers, waits for them and closes every socket.
// It returns the first worker error.
func (f *federation) stop() error {
	if f.pipe != nil {
		_ = f.pipe.Close()
	}
	_ = f.coord.Shutdown() // best effort: a worker that failed is reported below
	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		// A worker that never dialed cannot be told to stop; closing the
		// listener and connections unblocks it.
	}
	_ = f.coord.Close()
	<-done
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUp builds everything between the scenario and Engine.Run: the method,
// the engine, and on the TCP path listen, dial, accept and codec selection.
func setUp(sc *scenario, opt runOptions) (*rig, error) {
	alg, err := sc.newAlg()
	if err != nil {
		return nil, err
	}
	r := &rig{sc: sc, alg: alg}
	engAlg, poolAlg := alg, alg
	if opt.traced {
		r.rec = newRecorder()
		engAlg = traceAlgorithm(alg, r.rec, trackCoordinator)
		poolAlg = traceAlgorithm(alg, r.rec, trackPool)
	}
	var inner fl.EachRunner = &fl.LocalRunner{Alg: poolAlg, Workers: localWorkers}
	if sc.wl.tcp && !opt.localRef {
		r.fed, err = startFederation(sc, engAlg, r.rec)
		if err != nil {
			return nil, err
		}
		inner = r.fed.pipe
	}
	r.runner = &countingRunner{inner: inner, rec: r.rec}
	r.eng, err = fl.NewEngineWithRunner(sc.cfg, engAlg, r.runner)
	if err != nil {
		r.tearDown()
		return nil, err
	}
	if sc.wl.checkpoint && !opt.localRef {
		dir := filepath.Join(opt.outDir, "tmp", fmt.Sprintf("%s-%d", sc.wl.name, os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			r.tearDown()
			return nil, err
		}
		r.eng.Checkpoint = r.checkpointHook(filepath.Join(dir, "run.ckpt"))
	}
	return r, nil
}

// checkpointHook is fedserver's -checkpoint-dir closure.
func (r *rig) checkpointHook(path string) func(fl.ResumeState) error {
	return func(st fl.ResumeState) error {
		start := time.Now()
		err := checkpoint.SaveRunStateFile(path, &checkpoint.RunState{
			Method: paperMethod, Seed: r.sc.seed,
			NextTask: st.NextTask, NextRound: st.NextRound, Matrix: st.Matrix,
			Global: st.Global, Payload: st.Payload, HasPayload: st.HasPayload,
		})
		if r.rec != nil && err == nil {
			r.rec.add(spanCheckpoint, trackCoordinator, 0, start)
			if fi, serr := os.Stat(path); serr == nil {
				r.ckptBytes = fi.Size()
			}
		}
		return err
	}
}

func (r *rig) tearDown() error {
	var err error
	if r.fed != nil {
		err = r.fed.stop()
		r.fed = nil
	}
	return err
}

// run executes the scenario once and measures it from outside.
func (r *rig) run(opt runOptions) (*runResult, error) {
	sc := r.sc
	res := &runResult{Workload: sc.wl.name, Seed: sc.seed, Traced: opt.traced}
	runtime.GC() // start from a heap without the repeated set-ups' garbage
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if r.rec != nil {
		r.rec.open(spanRun, trackCoordinator, -1) // span 0, the root
	}
	start := time.Now()
	mat, err := r.eng.Run(sc.family, sc.domains)
	wall := time.Since(start)
	if r.rec != nil {
		// The root span is exactly the measured wall, so the budget below
		// sums to the number the end-to-end metrics report.
		root := &r.rec.spans[0]
		root.start = start.Sub(r.rec.t0)
		root.end = root.start + wall
	}
	runtime.ReadMemStats(&after)
	res.PeakRSSKB = peakRSSKB()
	if err != nil {
		_ = r.tearDown()
		return nil, err
	}
	res.WallS = wall.Seconds()
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.Mallocs = after.Mallocs - before.Mallocs
	res.Rounds, res.Updates = r.runner.rounds, r.runner.updates
	res.AvgAcc = mat.Avg()
	res.MatrixHash = hashMatrix(mat)
	res.StateHash = hashState(nn.StateDict(r.alg.Global()))

	if r.fed != nil {
		st := r.fed.pipe.Stats()
		res.Wire = &st
		if st.Fallbacks != tcpWorkers {
			res.Failures = append(res.Failures, fmt.Sprintf("wire: %d full-snapshot fallbacks, want one per worker (%d)", st.Fallbacks, tcpWorkers))
		}
		if st.UploadFallbacks != 0 {
			res.Failures = append(res.Failures, fmt.Sprintf("wire: %d upload fallbacks, want 0", st.UploadFallbacks))
		}
		if st.PatchUploads != int64(res.Updates) {
			res.Failures = append(res.Failures, fmt.Sprintf("wire: %d patch uploads for %d updates", st.PatchUploads, res.Updates))
		}
	}
	if err := r.tearDown(); err != nil {
		res.Failures = append(res.Failures, "worker: "+err.Error())
	}
	if r.rec != nil {
		res.Layers = layerMetrics(r.rec.spans, wall)
		res.Layers["checkpoint.bytes"] = float64(r.ckptBytes)
		if sc.wl.synth == nil {
			res.Layers["metrics.avg_acc_pct"] = res.AvgAcc * 100
		}
		if st := res.Wire; st != nil {
			res.Layers["transport.broadcast_bytes"] = float64(st.BroadcastBytes)
			res.Layers["transport.upload_bytes"] = float64(st.UploadBytes)
			res.Layers["transport.wire_mb_per_round"] = wireMBPerRound(res)
			res.Layers["transport.full_frames"] = float64(st.FullFrames)
			res.Layers["transport.delta_frames"] = float64(st.DeltaFrames)
			res.Layers["transport.fallbacks"] = float64(st.Fallbacks)
			res.Layers["transport.patch_uploads"] = float64(st.PatchUploads)
		}
		if err := runProbes(r, res.Layers); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if err := r.writeTrace(opt.outDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *rig) writeTrace(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, r.sc.wl.name+".trace.json"))
	if err != nil {
		return err
	}
	// The tracer closes f.
	return writeChromeTrace(f, r.rec, r.sc.wl.name)
}

// runChild is a child process's whole life: set up repeatedly, run once,
// report. The rig is returned for its spans.
func runChild(wl workload, seed int64, sz size, opt runOptions) (*runResult, *rig, error) {
	var (
		r      *rig
		setups []float64
	)
	for began := time.Now(); ; {
		runtime.GC() // every set-up starts from a heap without the previous one's garbage
		start := time.Now()
		sc, err := newScenario(wl, seed, sz)
		if err != nil {
			return nil, nil, err
		}
		if r, err = setUp(sc, opt); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		// The reference run's set-up time is not reported.
		if opt.localRef || len(setups) >= setupMinRepeats && time.Since(began) >= setupBudget {
			break
		}
		if err := r.tearDown(); err != nil {
			return nil, nil, err
		}
	}
	if wl.checkpoint && !opt.localRef {
		defer os.RemoveAll(filepath.Join(opt.outDir, "tmp", fmt.Sprintf("%s-%d", wl.name, os.Getpid())))
	}
	res, err := r.run(opt)
	if err != nil {
		return nil, nil, err
	}
	res.Setups = len(setups)
	res.SetupS = median(setups)
	return res, r, nil
}

// hashMatrix hashes the Float64bits of the accuracy matrix's lower triangle.
func hashMatrix(mat *metrics.Matrix) string {
	h := sha256.New()
	var b [8]byte
	for t := 0; t < mat.T; t++ {
		for i := 0; i <= t; i++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(mat.A[t][i]))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// hashState hashes a state dict: names in sorted order, then every
// element's Float64bits.
func hashState(dict map[string]*tensor.Tensor) string {
	names := make([]string, 0, len(dict))
	for name := range dict {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var b [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range dict[name].Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// peakRSSKB reads the process's resident-set high-water mark.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if rest, ok := strings.CutPrefix(s.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
