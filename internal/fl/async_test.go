package fl

import (
	"sort"
	"testing"

	"reffil/internal/data"
	"reffil/internal/tensor"
)

// scriptRunner is a Runner whose results encode their provenance: each
// job's "trained state" is the scalar clientID*100 + round, so admission
// tests can verify exactly which training run every admitted result came
// from.
type scriptRunner struct {
	calls int
}

func (s *scriptRunner) Run(jobs []Job) ([]Result, error) {
	s.calls++
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		out[i] = Result{
			Dict:   map[string]*tensor.Tensor{"w": tensor.Scalar(float64(j.Spec.ClientID*100 + j.Spec.Round))},
			Upload: j.Spec.ClientID,
		}
	}
	return out, nil
}

// collectRound runs one RunRound and returns its admissions in order.
func collectRound(ar *AsyncRunner, task, round int, jobs []Job, drain bool) ([]TaggedResult, error) {
	var admitted []TaggedResult
	err := ar.RunRound(task, round, jobs, drain, func(tr TaggedResult) error {
		admitted = append(admitted, tr)
		return nil
	})
	return admitted, err
}

// asyncJob builds a placement-only job for direct RunRound tests.
func asyncJob(client, round int, weight float64) Job {
	return Job{Spec: JobSpec{ClientID: client, Round: round}, Weight: weight}
}

// delayByClient returns a Delay policy mapping client id -> lag rounds.
func delayByClient(lags map[int]int) func(round int, spec JobSpec) int {
	return func(_ int, spec JobSpec) int { return lags[spec.ClientID] }
}

// TestAsyncRunnerAdmissionOrderAndDiscount drives two rounds by hand: a
// lagging client's result must be withheld from its own round, admitted
// at the head of the next round (older origin first), with its staleness
// recorded and its weight discounted by 1/(1+k).
func TestAsyncRunnerAdmissionOrderAndDiscount(t *testing.T) {
	ar := &AsyncRunner{
		Inner:     &scriptRunner{},
		Staleness: 1,
		Delay:     delayByClient(map[int]int{1: 1}),
	}
	admitted, err := collectRound(ar, 0, 0, []Job{asyncJob(1, 0, 10), asyncJob(2, 0, 20)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 1 || admitted[0].ClientID != 2 {
		t.Fatalf("round 0 admitted %+v, want only client 2", admitted)
	}
	if admitted[0].Origin != 0 || admitted[0].Staleness != 0 || admitted[0].Weight != 20 {
		t.Fatalf("fresh result mis-tagged: %+v", admitted[0])
	}
	if ar.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", ar.Pending())
	}

	admitted, err = collectRound(ar, 0, 1, []Job{asyncJob(3, 1, 40)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 2 {
		t.Fatalf("round 1 admitted %d results, want 2", len(admitted))
	}
	late, fresh := admitted[0], admitted[1]
	if late.ClientID != 1 || late.Origin != 0 || late.Staleness != 1 {
		t.Fatalf("late result mis-tagged: %+v", late)
	}
	if late.Weight != 10*0.5 {
		t.Fatalf("late weight = %v, want the 1/(1+1) discount of 10", late.Weight)
	}
	// Provenance of the payload itself: trained in round 0, not re-run.
	if got := late.Result.Dict["w"].Data()[0]; got != 100 {
		t.Fatalf("late result payload = %v, want the round-0 training output 100", got)
	}
	if fresh.ClientID != 3 || fresh.Staleness != 0 || fresh.Weight != 40 {
		t.Fatalf("fresh result mis-tagged: %+v", fresh)
	}
	if ar.Pending() != 0 || ar.Dropped() != 0 {
		t.Fatalf("pending=%d dropped=%d after flush, want 0/0", ar.Pending(), ar.Dropped())
	}
}

// TestAsyncRunnerDropsBeyondBound: a result lagging past the staleness
// window is discarded — never admitted, counted in Dropped.
func TestAsyncRunnerDropsBeyondBound(t *testing.T) {
	ar := &AsyncRunner{
		Inner:     &scriptRunner{},
		Staleness: 1,
		Delay:     delayByClient(map[int]int{9: 2}),
	}
	admitted, err := collectRound(ar, 0, 0, []Job{asyncJob(9, 0, 5), asyncJob(2, 0, 20)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 1 || admitted[0].ClientID != 2 {
		t.Fatalf("admitted %+v, want only client 2", admitted)
	}
	if ar.Dropped() != 1 || ar.Pending() != 0 {
		t.Fatalf("dropped=%d pending=%d, want 1/0", ar.Dropped(), ar.Pending())
	}
	admitted, err = collectRound(ar, 0, 1, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 0 {
		t.Fatalf("dropped result resurfaced at drain: %+v", admitted)
	}
}

// TestAsyncRunnerDrainFlushes: the task's last round admits everything —
// queued results with their true staleness, and the final round's own
// results immediately (there is no later round to lag into).
func TestAsyncRunnerDrainFlushes(t *testing.T) {
	ar := &AsyncRunner{
		Inner:     &scriptRunner{},
		Staleness: 2,
		Delay:     delayByClient(map[int]int{1: 2, 4: 1}),
	}
	if _, err := collectRound(ar, 0, 0, []Job{asyncJob(1, 0, 10)}, false); err != nil {
		t.Fatal(err)
	}
	if ar.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", ar.Pending())
	}
	admitted, err := collectRound(ar, 0, 1, []Job{asyncJob(4, 1, 40)}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 2 {
		t.Fatalf("drain admitted %d results, want 2", len(admitted))
	}
	if admitted[0].ClientID != 1 || admitted[0].Staleness != 1 || admitted[0].Weight != 5 {
		t.Fatalf("queued result at drain mis-tagged: %+v", admitted[0])
	}
	if admitted[1].ClientID != 4 || admitted[1].Staleness != 0 || admitted[1].Weight != 40 {
		t.Fatalf("final-round result must be admitted fresh under drain, got %+v", admitted[1])
	}
	if ar.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", ar.Pending())
	}
}

// TestAsyncRunnerTaskBoundaryLeak: results still pending when a new task
// starts are a bookkeeping bug, not a degradation — RunRound must refuse.
func TestAsyncRunnerTaskBoundaryLeak(t *testing.T) {
	ar := &AsyncRunner{
		Inner:     &scriptRunner{},
		Staleness: 3,
		Delay:     delayByClient(map[int]int{1: 3}),
	}
	if _, err := collectRound(ar, 0, 0, []Job{asyncJob(1, 0, 10)}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := collectRound(ar, 1, 0, nil, false); err == nil {
		t.Fatal("pending result leaking across a task boundary must error")
	}
}

func TestAsyncRunnerValidation(t *testing.T) {
	if _, err := collectRound(&AsyncRunner{}, 0, 0, nil, false); err == nil {
		t.Fatal("nil inner runner must error")
	}
	if _, err := collectRound(&AsyncRunner{Inner: &scriptRunner{}, Staleness: -1}, 0, 0, nil, false); err == nil {
		t.Fatal("negative staleness must error")
	}
}

// TestEngineAsyncZeroMatchesSync runs the full engine mechanics (fake
// algorithm) synchronously and through AsyncRunner{S:0}: aggregated
// weight, training calls and the upload stream must match exactly.
func TestEngineAsyncZeroMatchesSync(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(async bool) (float64, int, []int, int) {
		cfg := smallConfig()
		cfg.Rounds = 3
		cfg.Workers = 2
		alg := newFakeAlg()
		var runner Runner
		if async {
			runner = &AsyncRunner{Inner: &LocalRunner{Alg: alg, Workers: cfg.Workers}}
		}
		eng, err := NewEngineWithRunner(cfg, alg, runner)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(family, family.Domains[:2]); err != nil {
			t.Fatal(err)
		}
		return alg.w.T.At(0), alg.stats.trainCalls, alg.stats.uploads, alg.stats.rounds
	}
	w1, c1, u1, r1 := run(false)
	w2, c2, u2, r2 := run(true)
	if w1 != w2 || c1 != c2 || r1 != r2 {
		t.Fatalf("async S=0 diverged: (w=%v calls=%d rounds=%d) vs sync (w=%v calls=%d rounds=%d)", w2, c2, r2, w1, c1, r1)
	}
	if len(u1) != len(u2) {
		t.Fatalf("upload streams: %d async vs %d sync", len(u2), len(u1))
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatalf("upload order diverged: async %v vs sync %v", u2, u1)
		}
	}
}

// TestEngineAsyncBoundedStaleness runs the engine with every result
// lagging one round (S=1): every selected client still trains exactly
// once per selection, every upload is eventually admitted (drain), and
// rounds that admit nothing skip aggregation and the server hook.
func TestEngineAsyncBoundedStaleness(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, tasks = 3, 2
	run := func(lagAll bool) (int, []int, int) {
		cfg := smallConfig()
		cfg.Rounds = rounds
		alg := newFakeAlg()
		ar := &AsyncRunner{Inner: &LocalRunner{Alg: alg, Workers: 1}, Staleness: 1}
		if lagAll {
			ar.Delay = func(int, JobSpec) int { return 1 }
		}
		eng, err := NewEngineWithRunner(cfg, alg, ar)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(family, family.Domains[:tasks]); err != nil {
			t.Fatal(err)
		}
		if ar.Pending() != 0 {
			t.Fatalf("run finished with %d results pending", ar.Pending())
		}
		ups := append([]int(nil), alg.stats.uploads...)
		sort.Ints(ups)
		return alg.stats.trainCalls, ups, alg.stats.rounds
	}
	syncCalls, syncUploads, syncRounds := run(false)
	lagCalls, lagUploads, lagRounds := run(true)
	if lagCalls != syncCalls {
		t.Fatalf("lagging run trained %d clients, sync %d — staleness must not change who trains", lagCalls, syncCalls)
	}
	// Each task's first round admits nothing (everything lags one round),
	// so exactly one server round per task is skipped.
	if want := syncRounds - tasks; lagRounds != want {
		t.Fatalf("server rounds = %d, want %d (first round of each task admits nothing)", lagRounds, want)
	}
	// Drain guarantees no upload is lost, only re-timed.
	if len(lagUploads) != len(syncUploads) {
		t.Fatalf("lagging run delivered %d uploads, sync %d", len(lagUploads), len(syncUploads))
	}
	for i := range syncUploads {
		if lagUploads[i] != syncUploads[i] {
			t.Fatalf("upload multisets diverged: %v vs %v", lagUploads, syncUploads)
		}
	}
}

// TestStragglerDelayDeterministic pins the simulation policy: pure in
// (seed, round, client), bounded by maxDelay, degenerate at the edges.
func TestStragglerDelayDeterministic(t *testing.T) {
	d := StragglerDelay(7, 0.5, 3)
	lagged := 0
	for round := 0; round < 20; round++ {
		for client := 0; client < 10; client++ {
			spec := JobSpec{ClientID: client}
			a, b := d(round, spec), d(round, spec)
			if a != b {
				t.Fatalf("policy not deterministic at (%d,%d): %d vs %d", round, client, a, b)
			}
			if a < 0 || a > 3 {
				t.Fatalf("delay %d outside [0,3]", a)
			}
			if a > 0 {
				lagged++
			}
		}
	}
	if lagged == 0 || lagged == 200 {
		t.Fatalf("p=0.5 produced %d/200 stragglers", lagged)
	}
	if d := StragglerDelay(7, 0, 3); d(1, JobSpec{ClientID: 1}) != 0 {
		t.Fatal("p=0 must never lag")
	}
	always := StragglerDelay(7, 1, 2)
	for round := 0; round < 5; round++ {
		if got := always(round, JobSpec{ClientID: 3}); got < 1 || got > 2 {
			t.Fatalf("p=1 delay = %d, want within [1,2]", got)
		}
	}
}
