package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"reffil/internal/autograd"
	"reffil/internal/core"
	"reffil/internal/data"
	"reffil/internal/finch"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/fl/wire"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/opt"
)

const (
	probeWarmups = 3
	probeCalls   = 20
)

// timeCalls runs fn probeWarmups times untimed, then probeCalls times, and
// returns the median duration of one call in milliseconds.
func timeCalls(fn func() error) (float64, error) {
	ds := make([]float64, 0, probeCalls)
	for i := 0; i < probeWarmups+probeCalls; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if i >= probeWarmups {
			ds = append(ds, ms(time.Since(start)))
		}
	}
	return median(ds), nil
}

// runProbes measures single layers after a traced run, on one goroutine,
// by calling their public functions on inputs captured from that run. A
// layer the workload does not execute keeps its metric at 0.
func runProbes(r *rig, out map[string]float64) error {
	if err := probeData(r, out); err != nil {
		return fmt.Errorf("data: %w", err)
	}
	if r.sc.wl.synth == nil {
		if err := probeStep(r, out); err != nil {
			return fmt.Errorf("step: %w", err)
		}
		if err := probeFinch(r, out); err != nil {
			return fmt.Errorf("finch: %w", err)
		}
	}
	if r.sc.wl.tcp {
		if err := probeWire(r, out); err != nil {
			return fmt.Errorf("wire: %w", err)
		}
	}
	return nil
}

func probeData(r *rig, out map[string]float64) error {
	sc := r.sc
	var err error
	out["data.generate_ms"], err = timeCalls(func() error {
		_, _, err := sc.family.Generate(sc.domains[0], sc.cfg.TrainPerDomain, sc.cfg.TestPerDomain, fl.TaskSeed(sc.cfg.Seed, 0))
		return err
	})
	if err != nil {
		return err
	}
	// Cold: every call regenerates the domain and re-runs the partition,
	// which is what a worker pays the first time it sees a shard.
	specs := r.rec.firstSpecs
	call := 0
	out["data.materialize_ms"], err = timeCalls(func() error {
		shards := specs[call%len(specs)].Shards
		call++
		_, err := shards[len(shards)-1].Materialize()
		return err
	})
	return err
}

// probeStep times one minibatch of the first round's first client through
// the workload's backbone: forward with cross-entropy, backward, SGD step.
func probeStep(r *rig, out map[string]float64) error {
	sc := r.sc
	rng := rand.New(rand.NewSource(sc.seed))
	backbone, err := model.New(sc.modelCfg, rng)
	if err != nil {
		return err
	}
	hy := core.DefaultConfig(sc.modelCfg.Classes, len(sc.domains))
	sgd, err := opt.NewSGD(backbone.Params(), sc.cfg.LR, hy.Momentum, hy.WeightDecay)
	if err != nil {
		return err
	}
	batches, err := data.Batches(r.rec.firstData, sc.cfg.BatchSize, rng)
	if err != nil {
		return err
	}
	b := batches[0]
	ctx := &nn.Ctx{Train: true}
	var fwd, bwd, upd, allocs, allocKB []float64
	var before, after runtime.MemStats
	for i := 0; i < probeWarmups+probeCalls; i++ {
		sgd.ZeroGrad()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		logits, err := backbone.Forward(ctx, autograd.Constant(b.X), nil)
		if err != nil {
			return err
		}
		loss, err := autograd.SoftmaxCrossEntropy(logits, b.Y)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := autograd.Backward(loss); err != nil {
			return err
		}
		t2 := time.Now()
		sgd.Step()
		t3 := time.Now()
		runtime.ReadMemStats(&after)
		if i < probeWarmups {
			continue
		}
		fwd = append(fwd, ms(t1.Sub(t0)))
		bwd = append(bwd, ms(t2.Sub(t1)))
		upd = append(upd, ms(t3.Sub(t2)))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		allocKB = append(allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	}
	out["step.forward_ms"] = median(fwd)
	out["step.backward_ms"] = median(bwd)
	out["step.optim_ms"] = median(upd)
	out["step.allocs"] = median(allocs)
	out["step.alloc_kb"] = median(allocKB)
	return nil
}

func probeFinch(r *rig, out map[string]float64) error {
	alg, ok := r.alg.(*core.RefFiL)
	if !ok {
		return nil
	}
	flat, _ := alg.Bank().Flatten()
	if flat == nil {
		return nil
	}
	out["core.bank_prompts"] = float64(flat.Dim(0))
	var err error
	out["finch.cluster_ms"], err = timeCalls(func() error {
		_, err := finch.Cluster(flat)
		return err
	})
	return err
}

// probeWire encodes and decodes the patches the run itself produced: the
// upload of a client trained from the first installed global, and the
// broadcast from that global to the next.
func probeWire(r *rig, out map[string]float64) error {
	rec := r.rec
	if len(rec.globals) < 2 || rec.clientDict == nil {
		return nil // a run of fewer than two rounds has no delta to measure
	}
	codec, err := wire.New(wireCodec)
	if err != nil {
		return err
	}
	base, next, client := rec.globals[0], rec.globals[1], rec.clientDict
	var upload, broadcast *wire.Patch
	if out["wire.encode_upload_ms"], err = timeCalls(func() (err error) {
		upload, err = codec.Encode(base, client)
		return err
	}); err != nil {
		return err
	}
	if out["wire.decode_upload_ms"], err = timeCalls(func() error {
		_, err := codec.Decode(base, upload)
		return err
	}); err != nil {
		return err
	}
	if out["wire.encode_broadcast_ms"], err = timeCalls(func() (err error) {
		broadcast, err = codec.Encode(base, next)
		return err
	}); err != nil {
		return err
	}
	out["wire.upload_patch_bytes"] = float64(patchBytes(upload))
	out["wire.broadcast_patch_bytes"] = float64(patchBytes(broadcast))

	// One gob stream, as on a worker connection: type descriptors cross
	// once (in the warm-ups), then each ack is one message.
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	ack := transport.JobResult{Patch: upload}
	out["transport.frame_codec_ms"], err = timeCalls(func() error {
		if err := enc.Encode(ack); err != nil {
			return err
		}
		var got transport.JobResult
		return dec.Decode(&got)
	})
	return err
}

func patchBytes(p *wire.Patch) int {
	n := len(p.Dense) + len(p.Packed)
	for _, e := range p.Sparse {
		n += len(e.Key) + 8*len(e.Idx) + 8*len(e.Val)
	}
	return n
}
