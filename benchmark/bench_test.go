package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"reffil/internal/fl"
	"reffil/internal/nn"
)

const testSeed = 7

// smoke holds one timed, one traced and (for the synthetic rows) one
// LocalRunner reference run of every workload at smoke size, shared by the
// tests that need real runs.
type smokeRuns struct {
	timed, traced, ref map[string]*runResult
	rigs               map[string]*rig // of the traced runs
}

var (
	smokeOnce sync.Once
	smoke     smokeRuns
	smokeErr  error
)

func runSmoke(name string, opt runOptions) (*runResult, *rig, error) {
	wl, err := findWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	return runChild(wl, testSeed, sizeSmoke, opt)
}

func smokeFixture(t *testing.T) smokeRuns {
	t.Helper()
	smokeOnce.Do(func() {
		// Traces and checkpoints are written only while the fixture runs,
		// so the first caller's temporary directory lives long enough.
		dir := t.TempDir()
		smoke = smokeRuns{timed: map[string]*runResult{}, traced: map[string]*runResult{}, ref: map[string]*runResult{}, rigs: map[string]*rig{}}
		for _, wl := range workloads {
			if smoke.timed[wl.name], _, smokeErr = runSmoke(wl.name, runOptions{outDir: dir}); smokeErr != nil {
				return
			}
			if smoke.traced[wl.name], smoke.rigs[wl.name], smokeErr = runSmoke(wl.name, runOptions{traced: true, outDir: dir}); smokeErr != nil {
				return
			}
			if wl.synth != nil {
				if smoke.ref[wl.name], _, smokeErr = runSmoke(wl.name, runOptions{localRef: true, outDir: dir}); smokeErr != nil {
					return
				}
			}
		}
		smoke.ref["tcp_reffil_pacs"] = smoke.timed["local_reffil_pacs"]
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smoke
}

// TestDecoratorsLeaveOutputsBitIdentical: a run wrapped in the tracing
// decorators must produce the bits of the plain run, in process and over
// TCP, and the TCP run the bits of the local one.
func TestDecoratorsLeaveOutputsBitIdentical(t *testing.T) {
	s := smokeFixture(t)
	want := s.timed["local_reffil_pacs"]
	for _, name := range []string{"local_reffil_pacs", "tcp_reffil_pacs"} {
		for kind, got := range map[string]*runResult{"plain": s.timed[name], "traced": s.traced[name]} {
			if got.MatrixHash != want.MatrixHash || got.StateHash != want.StateHash {
				t.Errorf("%s %s: matrix %s state %s, want matrix %s state %s", name, kind, got.MatrixHash, got.StateHash, want.MatrixHash, want.StateHash)
			}
			if len(got.Failures) > 0 {
				t.Errorf("%s %s: %v", name, kind, got.Failures)
			}
		}
	}
	for _, name := range []string{"tcp_synth_dense", "tcp_synth_sparse"} {
		for kind, got := range map[string]*runResult{"plain": s.timed[name], "traced": s.traced[name]} {
			if got.StateHash != s.ref[name].StateHash {
				t.Errorf("%s %s: state %s, LocalRunner reference %s", name, kind, got.StateHash, s.ref[name].StateHash)
			}
		}
	}
	if s.timed["tcp_synth_dense"].StateHash == s.timed["tcp_synth_sparse"].StateHash {
		t.Error("dense and sparse runs ended in the same state: the window is not applied")
	}
}

// Fakes with exactly one optional interface each. Spawn keeps the type, so
// the decorator's re-wrap of replicas is exercised too.
type wsOnly struct{ *synthAlg }

func (wsOnly) EncodeWireState() ([]byte, error) { return []byte{1}, nil }
func (wsOnly) LoadWireState([]byte) error       { return nil }
func (a wsOnly) Spawn() (fl.Algorithm, error) {
	rep, err := a.synthAlg.Spawn()
	return wsOnly{rep.(*synthAlg)}, err
}

type ucOnly struct{ *synthAlg }

func (ucOnly) EncodeUpload(fl.Upload) ([]byte, error) { return nil, nil }
func (ucOnly) DecodeUpload([]byte) (fl.Upload, error) { return nil, nil }
func (a ucOnly) Spawn() (fl.Algorithm, error) {
	rep, err := a.synthAlg.Spawn()
	return ucOnly{rep.(*synthAlg)}, err
}

func TestTracedAlgKeepsOptionalInterfaces(t *testing.T) {
	stub, err := newSynthAlg(synthShape{keys: 2, elems: 4, changed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := findWorkload("local_reffil_pacs")
	sc, err := newScenario(wl, 1, sizeSmoke)
	if err != nil {
		t.Fatal(err)
	}
	reffil, err := sc.newAlg()
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]fl.Algorithm{"neither": stub, "wire state": wsOnly{stub}, "upload coder": ucOnly{stub}, "both": reffil} {
		_, wantWS := inner.(fl.WireStater)
		_, wantUC := inner.(fl.UploadCoder)
		wrapped := traceAlgorithm(inner, newRecorder(), "t")
		rep, err := wrapped.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		for kind, alg := range map[string]fl.Algorithm{"wrapped": wrapped, "spawned": rep} {
			_, gotWS := alg.(fl.WireStater)
			_, gotUC := alg.(fl.UploadCoder)
			if gotWS != wantWS || gotUC != wantUC {
				t.Errorf("%s, %s: WireStater %v UploadCoder %v, inner has %v %v", name, kind, gotWS, gotUC, wantWS, wantUC)
			}
		}
	}
}

func TestUnionLen(t *testing.T) {
	iv := func(pairs ...int) [][2]time.Duration {
		var out [][2]time.Duration
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, [2]time.Duration{time.Duration(pairs[i]), time.Duration(pairs[i+1])})
		}
		return out
	}
	for _, c := range []struct {
		name   string
		iv     [][2]time.Duration
		lo, hi time.Duration
		want   time.Duration
	}{
		{"empty", nil, 0, 100, 0},
		{"disjoint", iv(10, 20, 40, 70), 0, 100, 40},
		{"overlapping count once", iv(10, 50, 30, 70), 0, 100, 60},
		{"nested", iv(10, 90, 20, 30), 0, 100, 80},
		{"unsorted and touching", iv(50, 60, 10, 50), 0, 100, 50},
		{"clipped to the window", iv(0, 30, 80, 200), 20, 100, 30},
		{"outside the window", iv(0, 10), 20, 100, 0},
	} {
		if got := unionLen(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("%s: %d, want %d", c.name, got, c.want)
		}
	}
}

// TestExposedPerRound: two workers train at once, so a round's exposed time
// is its span minus the union — not the sum — of the training inside it.
func TestExposedPerRound(t *testing.T) {
	spans := []span{
		{name: spanRun, start: 0, end: 1000, parent: -1},
		{name: spanCollect, start: 100, end: 500, parent: 0},
		{name: spanLocalTrain, start: 120, end: 400, parent: 1},
		{name: spanLocalTrain, start: 150, end: 450, parent: 1},
		{name: spanFold, start: 460, end: 470, parent: 1},
		{name: spanCollect, start: 600, end: 900, parent: 0},
		{name: spanLocalTrain, start: 600, end: 700, parent: 5},
		{name: spanLocalTrain, start: 120, end: 400, parent: 1, track: "other worker, same time"},
	}
	got := exposedPerRound(spans)
	want := []float64{ms(400 - 330), ms(300 - 100)}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("exposed %v, want %v", got, want)
	}
	if self := selfTime(spans, 1); self != 400-330-10 {
		t.Errorf("collect self time %d, want %d", self, 400-330-10)
	}
}

// TestBudgetSumsToWall: the attributed spans tile the engine goroutine's
// time without overlap, and with run.unattributed_ms they sum to the wall.
func TestBudgetSumsToWall(t *testing.T) {
	s := smokeFixture(t)
	for _, wl := range workloads {
		res, spans := s.traced[wl.name], s.rigs[wl.name].rec.spans
		wall := ms(spans[0].dur())
		var tiles []span
		total := 0.0
		for _, sp := range spans {
			for _, name := range attributed {
				if sp.name == name {
					tiles = append(tiles, sp)
					total += ms(sp.dur())
				}
			}
		}
		if got := total + res.Layers["run.unattributed_ms"]; math.Abs(got-wall) > 1e-6 {
			t.Errorf("%s: attributed %.6f + unattributed %.6f = %.6f ms, wall %.6f ms", wl.name, total, res.Layers["run.unattributed_ms"], got, wall)
		}
		sort.Slice(tiles, func(i, j int) bool { return tiles[i].start < tiles[j].start })
		for i := 1; i < len(tiles); i++ {
			if tiles[i].start < tiles[i-1].end {
				t.Errorf("%s: %s [%v, %v] overlaps %s [%v, %v]", wl.name, tiles[i-1].name, tiles[i-1].start, tiles[i-1].end, tiles[i].name, tiles[i].start, tiles[i].end)
			}
		}
		if res.Layers["run.unattributed_ms"] < 0 {
			t.Errorf("%s: unattributed %.6f ms is negative", wl.name, res.Layers["run.unattributed_ms"])
		}
		if wl.checkpoint && res.Layers["checkpoint.bytes"] == 0 {
			t.Errorf("%s: no checkpoint was written", wl.name)
		}
	}
}

func TestLanesSeparateOverlappingSpans(t *testing.T) {
	spans := []span{{start: 0, end: 10}, {start: 5, end: 15}, {start: 10, end: 20}, {start: 12, end: 13}}
	got := lanes(spans, []int{0, 1, 2, 3})
	want := map[int]int{0: 0, 1: 1, 2: 0, 3: 2}
	for id, lane := range want {
		if got[id] != lane {
			t.Errorf("span %d on lane %d, want %d", id, got[id], lane)
		}
	}
}

// synthCtx is the context the engine builds for a client: its RNG is seeded
// from (client, task, round) under the benchmark's fixed engine seed.
func synthCtx(client, task, round int) *fl.LocalContext {
	return &fl.LocalContext{ClientID: client, Task: task, Rng: rand.New(rand.NewSource(fl.ClientSeed(scheduleSeed, client, task, round)))}
}

func TestSynthSpawnSharesNoTensors(t *testing.T) {
	parent, err := newSynthAlg(synthShape{keys: 4, elems: 8, changed: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := hashState(nn.StateDict(parent))
	rep, err := parent.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if hashState(nn.StateDict(rep.Global())) != before {
		t.Fatal("replica does not start from the parent's state")
	}
	if _, err := rep.LocalTrain(synthCtx(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if hashState(nn.StateDict(parent)) != before {
		t.Error("training a replica changed the parent")
	}
	if hashState(nn.StateDict(rep.Global())) == before {
		t.Error("training changed nothing")
	}
	for i, p := range parent.Params() {
		if &p.Value.T.Data()[0] == &rep.Global().Params()[i].Value.T.Data()[0] {
			t.Errorf("parameter %s shares storage with the replica", p.Name)
		}
	}
}

// TestSynthLocalTrainIsPure: an update is a function of the broadcast state
// and (seed, client, task, round), and depends on each of the four.
func TestSynthLocalTrainIsPure(t *testing.T) {
	train := func(seed int64, client, task, round int) string {
		parent, err := newSynthAlg(synthShape{keys: 4, elems: 8, changed: 2}, seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := parent.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.LocalTrain(synthCtx(client, task, round)); err != nil {
			t.Fatal(err)
		}
		return hashState(nn.StateDict(rep.Global()))
	}
	base := train(3, 1, 0, 2)
	if again := train(3, 1, 0, 2); again != base {
		t.Errorf("same inputs gave %s then %s", base, again)
	}
	for name, other := range map[string]string{"seed": train(4, 1, 0, 2), "client": train(3, 2, 0, 2), "task": train(3, 1, 1, 2), "round": train(3, 1, 0, 3)} {
		if other == base {
			t.Errorf("changing the %s did not change the update", name)
		}
	}
}

// TestSynthWindowFollowsStep: the keys outside the window keep their bits,
// and the window moves with the step counter carried in the state.
func TestSynthWindowFollowsStep(t *testing.T) {
	alg, err := newSynthAlg(synthShape{keys: 4, elems: 8, changed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		before := nn.StateDict(alg)
		if _, err := alg.LocalTrain(synthCtx(0, 0, step)); err != nil {
			t.Fatal(err)
		}
		after := nn.StateDict(alg)
		for k, p := range alg.Params()[:4] {
			changed := !before[p.Name].EqualBits(after[p.Name])
			if changed != (k == step%4) {
				t.Errorf("step %d: key %s changed=%v", step, p.Name, changed)
			}
		}
		if got := after["step"].Data()[0]; got != float64(step+1) {
			t.Errorf("step counter %v after %d updates", got, step+1)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v %v, want 2.75 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 values: %v %v, want 1 3", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %v, want 2.5", m)
	}
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func TestJudge(t *testing.T) {
	flat := func(v float64) sample { return sample{Median: v, Q1: v, Q3: v, N: 3} }
	wide := func(v, iqr float64) sample { return sample{Median: v, Q1: v - iqr/2, Q3: v + iqr/2, N: 3} }
	wall, _ := findMetric(endToEnd, "run_wall_s")
	rate, _ := findMetric(endToEnd, "client_updates_per_s")
	acc, _ := findMetric(endToEnd, "avg_acc_pct")
	for _, c := range []struct {
		name string
		d    metricDef
		a, b sample
		want string
	}{
		{"slower within the bound", wall, flat(10), flat(12), verdictOK},
		{"slower beyond the bound", wall, flat(10), flat(13), verdictRegressed},
		{"faster", wall, flat(10), flat(5), verdictOK},
		{"throughput down beyond the bound", rate, flat(100), flat(70), verdictRegressed},
		{"throughput up", rate, flat(100), flat(150), verdictOK},
		{"spread wider than the bound", rate, wide(100, 30), flat(60), verdictUnresolved},
		{"accuracy down half a point", acc, flat(86.5), flat(86.0), verdictOK},
		{"accuracy down two points", acc, flat(86.5), flat(84.5), verdictRegressed},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
