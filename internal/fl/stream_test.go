package fl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"reffil/internal/tensor"
)

// randDict builds a state dict with the given key sizes, filled from rng.
func randDict(rng *rand.Rand, sizes map[string]int) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(sizes))
	for name, n := range sizes {
		t := tensor.New(n)
		d := t.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		out[name] = t
	}
	return out
}

// TestStreamingFoldMatchesWeightedAverage pins the streaming aggregation
// contract three ways at Float64bits precision: folding dicts one at a
// time in job order then finalizing equals the batch WeightedAverage,
// both equal an independently computed serial reference (sum w_i*d_i in
// fold order, then one multiply by 1/total), and a key on which every
// client agrees bit for bit — unanimity breaks and re-forms mid-stream
// are exercised elsewhere — comes back as an exact, unaliased copy.
func TestStreamingFoldMatchesWeightedAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const clients = 5
	sizes := map[string]int{"a": 7, "b": 33}
	weights := []float64{3, 1, 2, 5, 4}

	frozen := tensor.New(16)
	for i, d := range frozen.Data() {
		_ = d
		frozen.Data()[i] = rng.NormFloat64()
	}
	dicts := make([]map[string]*tensor.Tensor, clients)
	for c := range dicts {
		dicts[c] = randDict(rng, sizes)
		// Every client carries bit-identical frozen parameters (its own
		// copy, as real replicas would).
		dicts[c]["frozen"] = frozen.Clone()
	}

	batch, err := WeightedAverage(dicts, weights)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator()
	for c, d := range dicts {
		if got, want := acc.Folded(), c; got != want {
			t.Fatalf("Folded() = %d before fold %d", got, want)
		}
		if err := acc.Fold(d, weights[c]); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := acc.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	total := 0.0
	for _, w := range weights {
		total += w
	}
	inv := 1 / total
	for name, n := range sizes {
		for i := 0; i < n; i++ {
			ref := 0.0
			for c := range dicts {
				ref += weights[c] * dicts[c][name].Data()[i]
			}
			ref *= inv
			if s := stream[name].Data()[i]; math.Float64bits(s) != math.Float64bits(ref) {
				t.Fatalf("stream[%s][%d] = %x, serial reference %x", name, i, math.Float64bits(s), math.Float64bits(ref))
			}
			if b := batch[name].Data()[i]; math.Float64bits(b) != math.Float64bits(stream[name].Data()[i]) {
				t.Fatalf("batch[%s][%d] = %x, stream %x", name, i, math.Float64bits(b), math.Float64bits(stream[name].Data()[i]))
			}
		}
	}
	// The unanimous key must be the agreed bits exactly — not the weighted
	// average's ulp-perturbed version of them — in both forms.
	for i, want := range frozen.Data() {
		if got := stream["frozen"].Data()[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("stream frozen[%d] = %x, want the unanimous bits %x", i, math.Float64bits(got), math.Float64bits(want))
		}
		if got := batch["frozen"].Data()[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("batch frozen[%d] = %x, want the unanimous bits %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
	// Copy, not alias: mutating the aggregate must not reach into any
	// client's (borrowed) dict.
	stream["frozen"].Data()[0]++
	for c := range dicts {
		if math.Float64bits(dicts[c]["frozen"].Data()[0]) != math.Float64bits(frozen.Data()[0]) {
			t.Fatalf("finalized unanimous key aliases client %d's dict", c)
		}
	}
}

// TestAccumulatorStreamingAllocs is the O(1)-dicts gate: once the running
// sums exist, folding another client's update must not allocate — no
// per-client clone, no per-key scratch. This is what entitles the engine
// to aggregate a round's acks as they arrive instead of holding every
// selected client's full state dict until the round ends.
func TestAccumulatorStreamingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun gates are calibrated for uninstrumented builds")
	}
	rng := rand.New(rand.NewSource(11))
	// 4 keys x 2048 elements: large enough that a hidden per-fold clone
	// would dominate the allocation count, small enough that the per-key
	// grain keeps the fold on the calling goroutine.
	sizes := map[string]int{"w1": 2048, "w2": 2048, "w3": 2048, "w4": 2048}
	d0 := randDict(rng, sizes)
	d1 := randDict(rng, sizes)

	acc := NewAccumulator()
	// Set-up folds: the first fixes the layout, the second breaks unanimity
	// and materializes the running sums.
	if err := acc.Fold(d0, 1); err != nil {
		t.Fatal(err)
	}
	if err := acc.Fold(d1, 2); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := acc.Fold(d0, 1.5); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state allocates exactly the per-fold loop closure handed to
	// internal/parallel plus the amortized growth of the weights slice. A
	// per-client dict or per-key tensor clone would cost at least
	// len(sizes) allocations (and tens of kilobytes) per fold.
	if avg >= 2 {
		t.Fatalf("steady-state Fold allocates %.1f objects per client update, want < 2", avg)
	}
}

// fakeDispatcher scripts the fl.Dispatcher contract for AsyncRunner unit
// tests: every call is appended to a single op log, so tests can assert
// not just which jobs were awaited or discarded but that a lagging job's
// Await happened after the next round's Dispatch — the pipelining.
type fakeDispatcher struct {
	ops     []string
	results map[[2]int]Result
}

func (f *fakeDispatcher) Run(jobs []Job) ([]Result, error) {
	return nil, fmt.Errorf("fakeDispatcher: barrier Run must not be used")
}

func (f *fakeDispatcher) Dispatch(task, round int, jobs []Job) error {
	f.ops = append(f.ops, fmt.Sprintf("dispatch %d", round))
	if f.results == nil {
		f.results = make(map[[2]int]Result)
	}
	for i, j := range jobs {
		f.results[[2]int{round, i}] = Result{
			Dict:   map[string]*tensor.Tensor{"w": tensor.Scalar(float64(j.Spec.ClientID*100 + round))},
			Upload: j.Spec.ClientID,
		}
	}
	return nil
}

func (f *fakeDispatcher) Await(round, index int) (Result, error) {
	f.ops = append(f.ops, fmt.Sprintf("await %d.%d", round, index))
	res, ok := f.results[[2]int{round, index}]
	if !ok {
		return Result{}, fmt.Errorf("fakeDispatcher: job %d of round %d awaited twice or never dispatched", index, round)
	}
	delete(f.results, [2]int{round, index})
	return res, nil
}

func (f *fakeDispatcher) Discard(round, index int) {
	f.ops = append(f.ops, fmt.Sprintf("discard %d.%d", round, index))
	delete(f.results, [2]int{round, index})
}

// TestAsyncRunnerPipelinedDispatcher drives the AsyncRunner over a scripted
// Dispatcher: lagging results must stay in flight (no Await at their own
// round), be awaited only at their admission round — after that round's
// dispatch, which is the overlap — beyond-bound results must be discarded
// on the transport, and the admitted stream must carry the same provenance
// and discounts as the barrier path.
func TestAsyncRunnerPipelinedDispatcher(t *testing.T) {
	fd := &fakeDispatcher{}
	ar := &AsyncRunner{
		Inner:     fd,
		Staleness: 1,
		Delay:     delayByClient(map[int]int{1: 1, 9: 2}),
	}
	admitted, err := collectRound(ar, 0, 0, []Job{asyncJob(1, 0, 10), asyncJob(2, 0, 20), asyncJob(9, 0, 5)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 1 || admitted[0].ClientID != 2 || admitted[0].Weight != 20 {
		t.Fatalf("round 0 admitted %+v, want only client 2 at full weight", admitted)
	}
	if ar.Pending() != 1 || ar.Dropped() != 1 {
		t.Fatalf("pending=%d dropped=%d after round 0, want 1/1", ar.Pending(), ar.Dropped())
	}

	admitted, err = collectRound(ar, 0, 1, []Job{asyncJob(3, 1, 40)}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 2 {
		t.Fatalf("round 1 admitted %d results, want 2", len(admitted))
	}
	late, fresh := admitted[0], admitted[1]
	if late.ClientID != 1 || late.Origin != 0 || late.Staleness != 1 || late.Weight != 5 {
		t.Fatalf("late result mis-tagged: %+v", late)
	}
	if got := late.Result.Dict["w"].Data()[0]; got != 100 {
		t.Fatalf("late payload = %v, want the round-0 result 100 (trained against round-0 weights)", got)
	}
	if fresh.ClientID != 3 || fresh.Staleness != 0 || fresh.Weight != 40 {
		t.Fatalf("fresh result mis-tagged: %+v", fresh)
	}

	// The op log is the pipelining claim itself: client 1's round-0 result
	// is awaited after round 1's dispatch (its computation had the whole
	// inter-round gap to finish in), and the dropped job is discarded, not
	// awaited.
	want := []string{"dispatch 0", "await 0.1", "discard 0.2", "dispatch 1", "await 0.0", "await 1.0"}
	if len(fd.ops) != len(want) {
		t.Fatalf("dispatcher ops = %v, want %v", fd.ops, want)
	}
	for i := range want {
		if fd.ops[i] != want[i] {
			t.Fatalf("dispatcher op %d = %q, want %q (full log %v)", i, fd.ops[i], want[i], fd.ops)
		}
	}
	if len(fd.results) != 0 {
		t.Fatalf("%d results left unsettled on the dispatcher", len(fd.results))
	}
}

// TestSleepUnlessStopped pins the stop-aware sleep: full sleeps report
// true, a closed stop channel cancels immediately, and non-positive
// durations never touch the timer.
func TestSleepUnlessStopped(t *testing.T) {
	if !SleepUnlessStopped(nil, -time.Second) {
		t.Fatal("non-positive duration must report completion")
	}
	if !SleepUnlessStopped(nil, time.Millisecond) {
		t.Fatal("a nil stop channel must never cancel the sleep")
	}
	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	if SleepUnlessStopped(stop, time.Hour) {
		t.Fatal("closed stop channel must cancel the sleep")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled sleep took %v", elapsed)
	}
}

// TestStragglerSleepMatchesDelayPolicy: the worker-side sleep and the
// coordinator-side Delay policy are twins — built from the same (seed,
// prob, maxDelay) they must agree on exactly which (round, client) pairs
// lag, and the sleep must honour the stop channel only when it actually
// sleeps.
func TestStragglerSleepMatchesDelayPolicy(t *testing.T) {
	const seed, prob, maxDelay = int64(7), 0.5, 2
	delay := StragglerDelay(seed, prob, maxDelay)
	// Two units for the two directions of the claim: an hour-scale unit so
	// a cancelled sleep provably never waited the delay out, a nanosecond
	// unit so completed sleeps don't slow the test down.
	slow := StragglerSleep(seed, prob, maxDelay, time.Hour)
	fast := StragglerSleep(seed, prob, maxDelay, time.Nanosecond)
	stopped := make(chan struct{})
	close(stopped)
	for round := 0; round < 8; round++ {
		for client := 0; client < 8; client++ {
			spec := JobSpec{ClientID: client}
			lags := delay(round, spec) > 0
			// With a closed stop channel, completion is reported iff the
			// job does not lag (nothing to sleep through).
			if done := slow(stopped, round, spec); done == lags {
				t.Fatalf("(round %d, client %d): delay policy lag=%v but stopped sleep reported done=%v", round, client, lags, done)
			}
			if !fast(nil, round, spec) {
				t.Fatalf("(round %d, client %d): un-stopped sleep must run to completion", round, client)
			}
		}
	}
	never := StragglerSleep(seed, 0, maxDelay, time.Hour)
	if !never(stopped, 0, JobSpec{ClientID: 1}) {
		t.Fatal("p=0 must never sleep")
	}
}
