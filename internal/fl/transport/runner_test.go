// Cross-runner determinism coverage: the acceptance gate for the pluggable
// round runner. For every method the in-process LocalRunner and a real TCP
// fan-out over 127.0.0.1 must make the same run for the same (dataset,
// domain, seed) — the networked path runs the same engine, derives the same
// shards from specs, and trains the same replicas. Each run is built by
// fltest.Federate and checked by fltest.RequireSameRun against the cached
// in-process reference, snapshot by snapshot, so a failure names the first
// (task, round) that diverged.
//
// Lives in an external test package so it can drive the real algorithms
// (core/baselines import fl; importing them from package transport itself
// would blur the layering even though no cycle exists).
package transport_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/fltest"
	"reffil/internal/fl/transport"
)

// TestCrossRunnerDeterminism requires the loopback-TCP run of each of the
// eight methods of the paper's tables to be the local run: the same state
// and wire-state hashes at every snapshot, the same accuracy matrix (==) and
// the same final state bit for bit. The TCP run exercises both wire directions: per-key
// diffs against each worker's acked base version on broadcast, per-job patch
// uploads against the round's broadcast base on the way back, and wire-state
// payload sent only when its bytes change. The delta path changes how bytes
// move, never what arrives. Each run must also prove it exercised the
// upload-patch path — every ack a patch, no silent fallback to full-state
// uploads.
func TestCrossRunnerDeterminism(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := experiments.MethodNames
	if testing.Short() {
		methods = []string{"RefFiL", "FedLwF"}
	}
	for _, method := range methods {
		method := method
		t.Run(short(method), func(t *testing.T) {
			got := fltest.Federate(t, method, family, domains, fltest.Federation{Workers: plain(2)})
			fltest.RequireSameRun(t, "TCP", fltest.Reference(t, method, family, domains), got.Run)
			requireAllPatchUploads(t, got.Stats)
		})
	}
}

// plain is n Plain workers.
func plain(n int) []fltest.Worker { return make([]fltest.Worker, n) }

// short is a method's subtest name: its table name in lowercase, without
// the "Fed" prefix (FedLwF → lwf, FedL2P+pool → l2p+pool).
func short(method string) string {
	return strings.ToLower(strings.TrimPrefix(method, "Fed"))
}

// TestShardSpecMaterializeMatchesPartition pins the data-derivation
// contract: a worker materializing a ShardSpec must recover exactly the
// shard the engine partitioned, for every slot of the partition — also
// when the run's family is class-limited below the dataset's own class
// count (experiments.ScaleSmoke keeps 6 of PACS's 7). An In-between
// client's two-shard job, built through a cold fl.Partitions, must equal
// the merge of the engine's task-0 and task-1 shards.
func TestShardSpecMaterializeMatchesPartition(t *testing.T) {
	const (
		seed     = int64(41)
		task     = 1
		learners = 3
	)
	full, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := experiments.ScaleSmoke.Family("pacs")
	if err != nil {
		t.Fatal(err)
	}
	if limited.Classes >= full.Classes {
		t.Fatalf("smoke family keeps %d of %d classes — not class-limited", limited.Classes, full.Classes)
	}
	requireSame := func(what string, want, got *data.Dataset) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%s: materialized %d examples, engine holds %d", what, got.Len(), want.Len())
		}
		for i := range want.Examples {
			w, g := want.Examples[i], got.Examples[i]
			if w.Y != g.Y || w.Task != g.Task {
				t.Fatalf("%s example %d: label/task mismatch", what, i)
			}
			if !w.X.EqualBits(g.X) {
				t.Fatalf("%s example %d: pixel data diverged", what, i)
			}
		}
	}
	for _, family := range []*data.Family{full, limited} {
		// engineShards splits a task's domain as the engine does: generate,
		// partition, tag.
		engineShards := func(task int) []*data.Dataset {
			train, _, err := family.Generate(family.Domains[task], 30, 10, fl.TaskSeed(seed, task))
			if err != nil {
				t.Fatal(err)
			}
			shards, err := data.PartitionQuantityShift(train, learners, 0.5,
				rand.New(rand.NewSource(fl.PartitionSeed(seed, task))))
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shards {
				sh.SetTask(task)
			}
			return shards
		}
		spec := func(task, idx int) fl.ShardSpec {
			return fl.ShardSpec{
				Dataset:        family.Name,
				Image:          family.Size,
				Classes:        family.Classes,
				Domain:         family.Domains[task],
				Task:           task,
				TrainPerDomain: 30,
				TestPerDomain:  10,
				GenSeed:        fl.TaskSeed(seed, task),
				Learners:       learners,
				Index:          idx,
				Alpha:          0.5,
				PartSeed:       fl.PartitionSeed(seed, task),
			}
		}
		shards := engineShards(task)
		for idx, want := range shards {
			got, err := spec(task, idx).Materialize()
			if err != nil {
				t.Fatal(err)
			}
			requireSame(fmt.Sprintf("%d classes, shard %d", family.Classes, idx), want, got)
		}

		var parts fl.Partitions
		job, err := parts.Job(fl.JobSpec{ClientID: 1, Group: fl.GroupInBetween,
			Shards: []fl.ShardSpec{spec(0, 0), spec(task, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		want := data.Merge("", engineShards(0)[0], shards[1])
		requireSame(fmt.Sprintf("%d classes, In-between job", family.Classes), want, job.Ctx.Data)
	}
}

// TestClassLimitedFamilyOverTCP runs a class-limited family (the smoke
// preset's) end to end: workers rebuild their shards from ShardSpecs, so
// the spec must carry the class limit for the TCP run to be the in-process
// one.
func TestClassLimitedFamilyOverTCP(t *testing.T) {
	family, err := experiments.ScaleSmoke.Family("pacs")
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	got := fltest.Federate(t, "RefFiL", family, domains, fltest.Federation{Workers: plain(2)})
	fltest.RequireSameRun(t, "TCP(class-limited)", fltest.Reference(t, "RefFiL", family, domains), got.Run)
	requireAllPatchUploads(t, got.Stats)
}

// TestCodecDeterminism runs every method of the paper's tables with the
// codec named through UseCodec, as the benchmark names it — UseCodec only
// checks the name, so the run must be unchanged — over four workers, so
// with three jobs a round one slot is dealt no job in any round. Each
// method's run must be the in-process reference's, every upload a patch, each of
// the three working slots must take exactly the one full snapshot its fresh
// connection costs, and the slot with no job must receive no frame: its
// first would be a fourth full snapshot, and with nothing re-queued every
// frame carries state.
func TestCodecDeterminism(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := experiments.MethodNames
	if testing.Short() {
		methods = []string{"RefFiL", "FedLwF"}
	}
	const workers = 4
	for _, method := range methods {
		method := method
		t.Run(short(method), func(t *testing.T) {
			got := fltest.Federate(t, method, family, domains, fltest.Federation{Workers: plain(workers), Codec: "delta"})
			fltest.RequireSameRun(t, "TCP(delta)", fltest.Reference(t, method, family, domains), got.Run)
			stats := got.Stats
			requireAllPatchUploads(t, stats)
			if stats.Fallbacks != workers-1 || stats.IdleFrames != 0 {
				t.Fatalf("%d full-snapshot fallbacks and %d frames without state over %d fresh slots, one with no job: %+v",
					stats.Fallbacks, stats.IdleFrames, workers, stats)
			}
		})
	}
}

// TestDeltaStatsAreDeterministic runs one federation twice — four
// workers for three jobs a round, so one slot is sent nothing — and
// requires both to be the reference run and their Stats to be equal, byte counts included: the
// counts are whole frames of round traffic, none of which can race a
// round's last ack. The values are pinned too, so a change to which frames
// the accounting counts fails here, and the run's OnRound records must sum
// to its Stats field by field.
func TestDeltaStatsAreDeterministic(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	ref := fltest.Reference(t, "FedLwF", family, domains)
	rounds := make(chan transport.RoundStats, 64)
	runs := [2]fltest.FedRun{
		fltest.Federate(t, "FedLwF", family, domains, fltest.Federation{Workers: plain(4), OnRound: func(rs transport.RoundStats) { rounds <- rs }}),
		fltest.Federate(t, "FedLwF", family, domains, fltest.Federation{Workers: plain(4)}),
	}
	for i, run := range runs {
		fltest.RequireSameRun(t, fmt.Sprintf("TCP run %d", i+1), ref, run.Run)
	}
	first, second := runs[0].Stats, runs[1].Stats
	if first != second {
		t.Fatalf("two runs of one federation report different Stats:\n%+v\n%+v", first, second)
	}
	want := transport.Stats{
		Rounds: 4, BroadcastBytes: 3105591, UploadBytes: 2212550,
		FullFrames: 3, DeltaFrames: 9, IdleFrames: 0, Fallbacks: 3,
		PatchUploads: 12, UploadFallbacks: 0,
	}
	if first != want {
		t.Fatalf("run Stats:\n%+v\nwant\n%+v", first, want)
	}
	var records []transport.RoundStats
	for range first.Rounds {
		records = append(records, <-rounds)
	}
	if sum := transport.SumRounds(records); sum != first {
		t.Fatalf("OnRound records sum to\n%+v\nStats reads\n%+v", sum, first)
	}
}

// requireAllPatchUploads asserts a run delta-encoded every upload: the
// worker always holds the round's base by the time it trains, so the
// full-state fallback must never fire.
func requireAllPatchUploads(t *testing.T, stats transport.Stats) {
	t.Helper()
	if stats.PatchUploads == 0 {
		t.Fatal("run produced no patch uploads — the base-relative upload path never engaged")
	}
	if stats.UploadFallbacks != 0 {
		t.Fatalf("run uploads: %+v, want patches only", stats)
	}
}
