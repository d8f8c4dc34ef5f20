package fl

import (
	"fmt"
	"math/rand"
	"time"

	"reffil/internal/telemetry"
)

// TaggedResult is one result admitted into an asynchronous round, carrying
// its provenance: which round's global weights the replica trained from
// (Origin), how many rounds late it is being admitted (Staleness, the
// admitting round minus Origin), and its staleness-discounted FedAvg
// weight. The engine aggregates TaggedResults exactly as it aggregates
// synchronous results, trusting the runner's (Origin, job-order) ordering.
type TaggedResult struct {
	// ClientID identifies the participant the result came from.
	ClientID int
	// Origin is the communication round whose jobs produced this result —
	// the replica trained against the global weights as of round Origin.
	Origin int
	// Staleness is admitting-round minus Origin; 0 for fresh results.
	Staleness int
	// Weight is the FedAvg weight after the staleness discount has been
	// applied (the job's base weight for Staleness 0).
	Weight float64
	// Result is the trained state dict and method upload, unchanged.
	Result Result
}

// StalenessRunner is the engine-facing contract for asynchronous rounds.
// Unlike EachRunner.RunEach — which must report one result per job —
// RunRound may hold results back and admit them into a later round of the
// same task. It hands each admitted result to admit as it is settled, so
// the engine folds it straight into the streaming FedAvg Accumulator and
// holds O(1) dicts; an error from admit aborts the round. The
// bounded-staleness invariants:
//
//   - a result trained against round r-k's weights is admitted into round
//     r only if k ≤ the runner's staleness bound (staler results are
//     dropped, like a client dropout);
//   - results are admitted in (Origin, position in the origin round's job
//     list) order, so aggregation order is deterministic;
//   - when drain is set (the last round of a task stage) every in-flight
//     result is admitted: no result may leak across a task boundary.
//
// With a staleness bound of 0 and no delays, every round admits exactly
// its own results in job order with undiscounted weights — bit-identical
// to the synchronous path.
type StalenessRunner interface {
	Runner
	RunRound(task, round int, jobs []Job, drain bool, admit func(TaggedResult) error) error
}

// DefaultDiscount is the staleness discount applied to a late result's
// FedAvg weight: 1/(1+k) for a result k rounds stale. It is 1 at k=0, so
// fresh results aggregate exactly as in the synchronous path.
func DefaultDiscount(staleness int) float64 { return 1 / float64(1+staleness) }

// AsyncRunner layers bounded-staleness round semantics over any Runner:
// the in-process LocalRunner pool or the TCP transport Pipeline. Each
// RunRound executes the round's jobs on Inner against the current global
// weights, then decides per result — via the Delay policy — whether it
// reports immediately or lags like a straggler, reporting into a later
// round with a staleness-discounted weight. Results delayed beyond the
// Staleness bound are dropped (the bounded-staleness guarantee: the
// aggregator never consumes a result staler than S rounds).
//
// AsyncRunner is not safe for concurrent use; the engine drives rounds
// serially. It also implements plain Runner by delegating to Inner, so it
// can be passed anywhere a Runner is expected — the engine detects the
// StalenessRunner interface and prefers the async path.
type AsyncRunner struct {
	// Inner executes the actual training.
	Inner Runner
	// Staleness is the bound S: a result may report up to S rounds after
	// the round whose weights it trained against. 0 reproduces the
	// synchronous path bit for bit (when Delay is nil or always 0).
	Staleness int
	// Delay decides how many rounds a job's result lags before reporting
	// (0 = report into its own round). Results with Delay > Staleness are
	// dropped. nil means no result ever lags. The policy must be
	// deterministic in (round, spec) for reproducible runs — see
	// StragglerDelay.
	Delay func(round int, spec JobSpec) int
	// Telemetry, when non-nil, receives admission-queue depth, staleness
	// distribution, discounted weight mass and drop events. Observation
	// only — admission order and weights are unaffected.
	Telemetry *telemetry.Sink

	task    int
	pending []pendingResult
	dropped int
}

// pendingResult is a trained result withheld by the Delay policy, waiting
// for its admission round. Over a plain Runner res holds the trained
// result; over a Dispatcher the result is still in flight on the transport
// (inflight set) and is awaited at admission time — that wall-clock overlap
// is the whole point of the pipelined path.
type pendingResult struct {
	due        int
	origin     int
	index      int // position in the origin round's job list
	clientID   int
	baseWeight float64
	inflight   bool
	res        Result
}

// RunRound implements StalenessRunner: execute round's jobs on Inner, admit
// every in-flight result due by this round (all of them under drain), and
// queue the rest.
//
// When Inner is a Dispatcher (the pipelined transport), the round's jobs
// are dispatched without a barrier: results the Delay policy marks as
// lagging are left in flight on the transport — the worker computes them
// while later rounds dispatch and aggregate — and are awaited only when
// their admission round comes up. Over a plain Runner the jobs execute
// synchronously and lagging results are queued locally, wall-clock
// barriers intact (the pre-pipelining simulation semantics). Both paths
// admit the same results in the same order with the same weights.
//
// After any error the runner's pending bookkeeping is unspecified; the
// engine treats a round error as fatal for the run.
func (a *AsyncRunner) RunRound(task, round int, jobs []Job, drain bool, admit func(TaggedResult) error) error {
	if a.Inner == nil {
		return fmt.Errorf("fl: async runner has no inner runner")
	}
	if a.Staleness < 0 {
		return fmt.Errorf("fl: staleness bound must be non-negative, got %d", a.Staleness)
	}
	if task != a.task {
		// The drain at each task's last round guarantees an empty queue
		// here; a leftover would aggregate one task's update into another.
		if len(a.pending) > 0 {
			return fmt.Errorf("fl: %d results pending across task boundary %d -> %d", len(a.pending), a.task, task)
		}
		a.task = task
	}

	dp, pipelined := a.Inner.(Dispatcher)
	var results []Result
	if pipelined {
		if err := dp.Dispatch(task, round, jobs); err != nil {
			return err
		}
	} else {
		var err error
		results, err = a.Inner.Run(jobs)
		if err != nil {
			return err
		}
		if len(results) != len(jobs) {
			return fmt.Errorf("fl: inner runner returned %d results for %d jobs", len(results), len(jobs))
		}
	}

	// Older provenance aggregates first: the pending queue is appended in
	// (origin, job-order) and filtering preserves that order, and every
	// queued result predates this round's, so queue-then-current is the
	// documented (Origin, job-order) admission order. In-flight pipelined
	// results are awaited here — after this round's dispatch, so the
	// transport overlaps the wait with the new round's training.
	keep := a.pending[:0]
	for _, p := range a.pending {
		if drain || p.due <= round {
			if p.inflight {
				res, err := dp.Await(p.origin, p.index)
				if err != nil {
					return err
				}
				p.res, p.inflight = res, false
			}
			if err := admit(a.admit(p, round)); err != nil {
				return err
			}
		} else {
			keep = append(keep, p)
		}
	}
	a.pending = keep

	for i := range jobs {
		d := 0
		if a.Delay != nil {
			d = a.Delay(round, jobs[i].Spec)
		}
		p := pendingResult{
			origin:     round,
			index:      i,
			clientID:   jobs[i].Spec.ClientID,
			baseWeight: jobs[i].Weight,
		}
		if drain || d <= 0 {
			// The last round of a task has no later round to lag into, so
			// the window closes: delays are void and the result is fresh.
			if pipelined {
				res, err := dp.Await(round, i)
				if err != nil {
					return err
				}
				p.res = res
			} else {
				p.res = results[i]
			}
			if err := admit(a.admit(p, round)); err != nil {
				return err
			}
			continue
		}
		if d > a.Staleness {
			a.dropped++ // beyond the bound: discarded like a dropout
			a.Telemetry.ResultDropped(round)
			if pipelined {
				dp.Discard(round, i)
			}
			continue
		}
		p.due = round + d
		if pipelined {
			p.inflight = true
		} else {
			p.res = results[i]
		}
		a.pending = append(a.pending, p)
	}
	a.Telemetry.QueueDepth(len(a.pending))
	return nil
}

// admit stamps a pending result's provenance and discounted weight for
// admission into the given round.
func (a *AsyncRunner) admit(p pendingResult, round int) TaggedResult {
	k := round - p.origin
	tr := TaggedResult{
		ClientID:  p.clientID,
		Origin:    p.origin,
		Staleness: k,
		Weight:    p.baseWeight * DefaultDiscount(k),
		Result:    p.res,
	}
	a.Telemetry.ResultAdmitted(round, tr.Origin, tr.Staleness, tr.Weight)
	return tr
}

// Run implements the plain synchronous Runner contract by delegating to
// Inner, so an AsyncRunner satisfies every Runner-typed seam. The engine
// never calls it — it detects StalenessRunner and uses RunRound.
func (a *AsyncRunner) Run(jobs []Job) ([]Result, error) {
	if a.Inner == nil {
		return nil, fmt.Errorf("fl: async runner has no inner runner")
	}
	return a.Inner.Run(jobs)
}

// Pending reports how many trained results are currently withheld.
func (a *AsyncRunner) Pending() int { return len(a.pending) }

// Dropped reports how many results were discarded for exceeding the
// staleness bound over the runner's lifetime.
func (a *AsyncRunner) Dropped() int { return a.dropped }

// StragglerDelay builds a deterministic Delay policy for straggler
// simulation: each (round, client) pair independently lags with the given
// probability, by 1..maxDelay rounds. The decision is a pure function of
// (seed, round, client), so identical runs see identical stragglers
// regardless of runner layout or worker count.
func StragglerDelay(seed int64, prob float64, maxDelay int) func(round int, spec JobSpec) int {
	return func(round int, spec JobSpec) int {
		if prob <= 0 || maxDelay <= 0 {
			return 0
		}
		// splitmix64 increment and mixer constants; both odd, so the
		// per-coordinate products permute rather than collapse.
		const mix1, mix2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9
		h := uint64(seed) ^ uint64(round+1)*mix1 ^ uint64(spec.ClientID+1)*mix2
		rng := rand.New(rand.NewSource(int64(h)))
		if rng.Float64() >= prob {
			return 0
		}
		return 1 + rng.Intn(maxDelay)
	}
}

// SleepUnlessStopped sleeps for d, returning true after the full duration
// or false immediately when stop closes first. A nil stop never fires, and
// a non-positive d returns true without sleeping.
func SleepUnlessStopped(stop <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// StragglerSleep builds the worker-side twin of StragglerDelay: the same
// deterministic (seed, round, client) decision, but expressed as real
// wall-clock sleep of delay×unit instead of a round-admission lag — the
// straggler simulation for pipelined transports, where slowness is
// physical. Coordinator Delay policy and worker sleep built from the same
// (seed, prob, maxDelay) agree on exactly which jobs lag and by how many
// rounds, so admission anticipates the actual slowness.
//
// The sleep is stop-aware (SleepUnlessStopped): a worker whose coordinator
// died mid-round cancels the remaining delay instead of sleeping it out.
// The returned function reports whether the sleep ran to completion.
func StragglerSleep(seed int64, prob float64, maxDelay int, unit time.Duration) func(stop <-chan struct{}, round int, spec JobSpec) bool {
	delay := StragglerDelay(seed, prob, maxDelay)
	return func(stop <-chan struct{}, round int, spec JobSpec) bool {
		d := delay(round, spec)
		if d <= 0 {
			return true
		}
		return SleepUnlessStopped(stop, time.Duration(d)*unit)
	}
}

var (
	_ Runner          = (*AsyncRunner)(nil)
	_ StalenessRunner = (*AsyncRunner)(nil)
)
