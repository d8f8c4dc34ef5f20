package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/nn"
	"reffil/internal/telemetry"
	"reffil/internal/tensor"
)

// Span names. A span is recorded by a decorator in this package around a
// call into the named layer; nothing inside internal/ is instrumented.
const (
	spanRun          = "run"
	spanCollect      = "fl.round_collect"
	spanInstall      = "fl.install"
	spanFold         = "fl.fold"
	spanSpawn        = "alg.spawn"
	spanLocalTrain   = "alg.local_train"
	spanServerRound  = "alg.server_round"
	spanPredict      = "alg.predict"
	spanTaskHooks    = "alg.task_hooks"
	spanCheckpoint   = "checkpoint.save"
	trackCoordinator = "coordinator"
	trackPool        = "pool" // LocalRunner's workers
)

// span is one timed call: offsets from the recorder's t0, the span that
// caused it (-1 for the root) and the round it belongs to (-1 outside any).
type span struct {
	name       string
	track      string
	start, end time.Duration
	parent     int
	round      int
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps a traced run's spans in memory; they are written out only
// after the run (writeChromeTrace). Synchronous rounds mean at most one round
// is in flight, so the round id and the open collect span are process-wide
// values the worker-side decorators read without being told.
type recorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	round   atomic.Int64 // current round sequence number, -1 outside rounds
	collect atomic.Int64 // open fl.round_collect span id, -1 when none
	// installFrom is when the last RunEach returned (offset from t0, 0 when
	// consumed): fl.install runs from there to ServerRound's entry.
	installFrom atomic.Int64

	// Probe inputs captured from the real run: the global state after the
	// first and second installed round, one client's trained dict from the
	// second round (trained from the first global), and the first round's
	// job specs.
	globals    []map[string]*tensor.Tensor
	clientDict map[string]*tensor.Tensor
	firstSpecs []fl.JobSpec
	firstData  *data.Dataset
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.round.Store(-1)
	r.collect.Store(-1)
	return r
}

// open starts a span whose children need its id before it ends.
func (r *recorder) open(name, track string, parent int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, track: track, start: now, end: now, parent: parent, round: int(r.round.Load())})
	return len(r.spans) - 1
}

func (r *recorder) close(id int) {
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// add records a span that began at start and ends now.
func (r *recorder) add(name, track string, parent int, start time.Time) {
	r.addBetween(name, track, parent, start.Sub(r.t0), time.Since(r.t0))
}

// addBetween records a finished span given as offsets from t0.
func (r *recorder) addBetween(name, track string, parent int, start, end time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, track: track, start: start, end: end, parent: parent, round: int(r.round.Load())})
	r.mu.Unlock()
}

// tracedAlg decorates an fl.Algorithm with spans. Calls made on the engine
// goroutine (hooks, ServerRound, Predict) are children of the root span;
// Spawn and LocalTrain run inside a round and are children of its collect
// span.
type tracedAlg struct {
	inner fl.Algorithm
	rec   *recorder
	track string
}

// The engine and the transport discover fl.WireStater and fl.UploadCoder by
// type assertion, so the decorator must have exactly the optional methods
// its inner algorithm has: one concrete type per combination.
type (
	tracedAlgWS struct {
		*tracedAlg
		fl.WireStater
	}
	tracedAlgUC struct {
		*tracedAlg
		fl.UploadCoder
	}
	tracedAlgWSUC struct {
		*tracedAlg
		fl.WireStater
		fl.UploadCoder
	}
)

// traceAlgorithm wraps alg so its calls are recorded on track.
func traceAlgorithm(alg fl.Algorithm, rec *recorder, track string) fl.Algorithm {
	return (&tracedAlg{inner: alg, rec: rec, track: track}).dress()
}

func (a *tracedAlg) dress() fl.Algorithm {
	ws, isWS := a.inner.(fl.WireStater)
	uc, isUC := a.inner.(fl.UploadCoder)
	switch {
	case isWS && isUC:
		return tracedAlgWSUC{a, ws, uc}
	case isWS:
		return tracedAlgWS{a, ws}
	case isUC:
		return tracedAlgUC{a, uc}
	}
	return a
}

func (a *tracedAlg) Name() string      { return a.inner.Name() }
func (a *tracedAlg) Global() nn.Module { return a.inner.Global() }

func (a *tracedAlg) Spawn() (fl.Algorithm, error) {
	start := time.Now()
	rep, err := a.inner.Spawn()
	a.rec.add(spanSpawn, a.track, int(a.rec.collect.Load()), start)
	if err != nil {
		return nil, err
	}
	return (&tracedAlg{inner: rep, rec: a.rec, track: a.track}).dress(), nil
}

func (a *tracedAlg) OnTaskStart(task int) error {
	start := time.Now()
	err := a.inner.OnTaskStart(task)
	a.rec.add(spanTaskHooks, a.track, 0, start)
	return err
}

func (a *tracedAlg) OnTaskEnd(task int, sample *data.Dataset) error {
	a.rec.round.Store(-1) // the task's rounds are over; evaluation follows
	start := time.Now()
	err := a.inner.OnTaskEnd(task, sample)
	a.rec.add(spanTaskHooks, a.track, 0, start)
	return err
}

func (a *tracedAlg) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	start := time.Now()
	up, err := a.inner.LocalTrain(ctx)
	a.rec.add(spanLocalTrain, a.track, int(a.rec.collect.Load()), start)
	return up, err
}

func (a *tracedAlg) ServerRound(task, round int, uploads []fl.Upload) error {
	start := time.Now()
	if from := a.rec.installFrom.Swap(0); from != 0 {
		a.rec.addBetween(spanInstall, a.track, 0, time.Duration(from), start.Sub(a.rec.t0))
	}
	if len(a.rec.globals) < 2 {
		// Global() holds the aggregate the engine just installed.
		a.rec.globals = append(a.rec.globals, nn.StateDict(a.inner.Global()))
		start = time.Now()
	}
	err := a.inner.ServerRound(task, round, uploads)
	a.rec.add(spanServerRound, a.track, 0, start)
	return err
}

func (a *tracedAlg) Predict(x *tensor.Tensor) ([]int, error) {
	start := time.Now()
	out, err := a.inner.Predict(x)
	a.rec.add(spanPredict, a.track, 0, start)
	return out, err
}

// countingRunner is the fl.Runner handed to the engine in every benchmark
// run. It exposes only Run and RunEach, so the engine takes its streaming
// synchronous path whichever runner is inside, and it counts the rounds and
// client updates the engine dispatched — the denominators of the per-round
// and per-update metrics. With a recorder it also records the round's
// collect span, the engine's done callback as fl.fold, and the probe inputs.
type countingRunner struct {
	inner           fl.EachRunner
	rounds, updates int

	rec *recorder
}

func (c *countingRunner) Run(jobs []fl.Job) ([]fl.Result, error) {
	results := make([]fl.Result, len(jobs))
	err := c.RunEach(jobs, func(i int, res fl.Result) error {
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

func (c *countingRunner) RunEach(jobs []fl.Job, done func(i int, res fl.Result) error) error {
	if len(jobs) == 0 {
		return nil
	}
	c.rounds++
	c.updates += len(jobs)
	if c.rec == nil {
		return c.inner.RunEach(jobs, done)
	}

	rec := c.rec
	rec.round.Store(int64(c.rounds - 1))
	if c.rounds == 1 {
		for _, j := range jobs {
			rec.firstSpecs = append(rec.firstSpecs, j.Spec)
		}
		rec.firstData = jobs[0].Ctx.Data
	}
	id := rec.open(spanCollect, trackCoordinator, 0)
	rec.collect.Store(int64(id))
	err := c.inner.RunEach(jobs, func(i int, res fl.Result) error {
		if c.rounds == 2 && rec.clientDict == nil {
			rec.clientDict = res.Dict
		}
		start := time.Now()
		err := done(i, res)
		rec.add(spanFold, trackCoordinator, id, start)
		return err
	})
	rec.close(id)
	rec.collect.Store(-1)
	rec.installFrom.Store(int64(time.Since(rec.t0)))
	return err
}

var _ fl.EachRunner = (*countingRunner)(nil)

// unionLen is the total length covered by the intervals, clipped to
// [lo, hi]: overlapping spans count once.
func unionLen(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, x := range iv {
		if x[0] < lo {
			x[0] = lo
		}
		if x[1] > hi {
			x[1] = hi
		}
		if x[1] > x[0] {
			clipped = append(clipped, x)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	end := lo
	for _, x := range clipped {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its direct children
// cover.
func selfTime(spans []span, id int) time.Duration {
	var kids [][2]time.Duration
	for _, s := range spans {
		if s.parent == id {
			kids = append(kids, [2]time.Duration{s.start, s.end})
		}
	}
	p := spans[id]
	return p.dur() - unionLen(kids, p.start, p.end)
}

// lanes assigns every span of a track whose spans may overlap (the local
// pool's concurrent LocalTrain calls) to the first lane free at its start,
// so each lane is a sequence a trace viewer can draw on one row.
func lanes(spans []span, ids []int) map[int]int {
	sorted := append([]int(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return spans[sorted[i]].start < spans[sorted[j]].start })
	var free []time.Duration // per lane: when it is next free
	out := make(map[int]int, len(ids))
	for _, id := range sorted {
		lane := -1
		for l, at := range free {
			if at <= spans[id].start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(free)
			free = append(free, 0)
		}
		free[lane] = spans[id].end
		out[id] = lane
	}
	return out
}

// writeChromeTrace writes the spans through telemetry.Tracer: one process
// track per worker (one per lane of the in-process pool), tid = round + 1.
func writeChromeTrace(w io.Writer, rec *recorder, workload string) error {
	spans := rec.spans
	byTrack := make(map[string][]int)
	for id, s := range spans {
		byTrack[s.track] = append(byTrack[s.track], id)
	}
	tr := telemetry.NewTracer(w)
	base := time.Now() // the tracer's timebase starts now; replay the run from here
	tr.Meta("benchmark", telemetry.Arg{Key: "workload", Val: workload})
	tracks := make([]string, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	for _, t := range tracks {
		lane := map[int]int{}
		if t != trackCoordinator {
			lane = lanes(spans, byTrack[t])
		}
		for _, id := range byTrack[t] {
			s := spans[id]
			name := t
			if l, ok := lane[id]; ok && l > 0 {
				name = fmt.Sprintf("%s lane %d", t, l)
			}
			tr.Span(name, int64(s.round+1), s.name, base.Add(s.start), s.dur(),
				telemetry.Arg{Key: "id", Val: id}, telemetry.Arg{Key: "parent", Val: s.parent},
				telemetry.Arg{Key: "self_us", Val: selfTime(spans, id).Microseconds()})
		}
	}
	return tr.Close()
}
