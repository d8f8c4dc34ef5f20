package fl

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"reffil/internal/fl/internal/poison"
	"reffil/internal/tensor"
)

// weightedAverage is the batch form of Accumulator, the fold's oracle:
// dicts fold in order 0, 1, 2, ... and the sum is normalized once at the end.
func weightedAverage(dicts []map[string]*tensor.Tensor, weights []float64) (map[string]*tensor.Tensor, error) {
	if len(dicts) != len(weights) {
		return nil, fmt.Errorf("fl: %d dicts but %d weights", len(dicts), len(weights))
	}
	acc := NewAccumulator()
	for i, d := range dicts {
		if err := acc.Fold(d, weights[i]); err != nil {
			return nil, err
		}
	}
	return acc.Finalize()
}

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
// are exercised elsewhere — comes back as the first folded dict's tensor.
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

	batch, err := weightedAverage(dicts, weights)
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
	// Alias, not copy: the unanimous key is the first folded dict's own
	// tensor in both forms — the engine loads the aggregate before it
	// releases that dict, so a clone per round would buy nothing.
	if stream["frozen"] != dicts[0]["frozen"] || batch["frozen"] != dicts[0]["frozen"] {
		t.Fatal("finalized unanimous key is a copy, not the first folded dict's tensor")
	}
}

// TestFoldRefusesReshapedEntry folds a (3,2) entry onto a (2,3) one: the
// element counts agree, the shapes do not, and a fold that compared only
// counts would average the two elementwise.
func TestFoldRefusesReshapedEntry(t *testing.T) {
	acc := NewAccumulator()
	if err := acc.Fold(map[string]*tensor.Tensor{"w": tensor.New(2, 3)}, 1); err != nil {
		t.Fatal(err)
	}
	err := acc.Fold(map[string]*tensor.Tensor{"w": tensor.New(3, 2)}, 1)
	if err == nil {
		t.Fatal("a (3,2) entry folded onto a (2,3) one")
	}
	if !strings.Contains(err.Error(), "[3 2]") || !strings.Contains(err.Error(), "[2 3]") {
		t.Fatalf("refusal %q does not name both shapes", err)
	}
	if acc.Folded() != 1 {
		t.Fatalf("the refused update counted: %d folded", acc.Folded())
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
	// Steady state allocates only the amortized growth of the weights
	// slice. A per-client dict or per-key tensor clone would cost at least
	// len(sizes) allocations (and tens of kilobytes) per fold.
	if avg >= 2 {
		t.Fatalf("steady-state Fold allocates %.1f objects per client update, want < 2", avg)
	}
}

// TestResetAccumulatorMatchesFreshOne folds four rounds into one
// Accumulator, Reset between rounds as the engine does, and into a fresh
// Accumulator per round. Key "a" is unanimous in rounds 0 and 2 and broken
// in 1 and 3, key "b" the other way round, and key "c" is broken in every
// round; element 1 of every key is -0 in every client, so a kept sum that
// were not zero-filled to +0 before its replay — left at last round's
// values, at the NaN poison, or scaled to -0 — would finalize to another
// sign or value. Every round's aggregate must match the fresh one's bit for
// bit, key "c" must be summed into the same tensor every round, and no
// dict folded in any round may be written: a unanimous key's aggregate is
// the first dict's own tensor, which a later round's sums must never
// become.
func TestResetAccumulatorMatchesFreshOne(t *testing.T) {
	defer poison.Enable()()
	rng := rand.New(rand.NewSource(5))
	weights := []float64{2, 1, 3}
	negZero := math.Copysign(0, -1)
	var reused Accumulator
	var keptC *tensor.Tensor
	// folded holds every dict folded so far, kept a copy of each.
	var folded, kept []map[string]*tensor.Tensor
	for round := 0; round < 4; round++ {
		unanimous := map[string]bool{"a": round%2 == 0, "b": round%2 == 1, "c": false}
		shared := map[string][]float64{}
		for _, k := range []string{"a", "b", "c"} {
			shared[k] = []float64{rng.NormFloat64(), negZero, rng.NormFloat64()}
		}
		dicts := make([]map[string]*tensor.Tensor, len(weights))
		for c := range dicts {
			dicts[c] = make(map[string]*tensor.Tensor)
			for k, vals := range shared {
				tt := tensor.New(len(vals))
				copy(tt.Data(), vals)
				if !unanimous[k] {
					tt.Data()[0] += float64(c + 1)
				}
				dicts[c][k] = tt
			}
		}
		for _, d := range dicts {
			clone := make(map[string]*tensor.Tensor, len(d))
			for k, v := range d {
				clone[k] = v.Clone()
			}
			folded, kept = append(folded, d), append(kept, clone)
		}
		fresh := NewAccumulator()
		reused.Reset()
		for c, d := range dicts {
			if err := fresh.Fold(d, weights[c]); err != nil {
				t.Fatal(err)
			}
			if err := reused.Fold(d, weights[c]); err != nil {
				t.Fatal(err)
			}
		}
		want, err := fresh.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range want {
			for i, wv := range w.Data() {
				if gv := got[k].Data()[i]; math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("round %d %s[%d]: reused accumulator %x, fresh %x", round, k, i, math.Float64bits(gv), math.Float64bits(wv))
				}
			}
			if unanimous[k] != (got[k] == dicts[0][k]) {
				t.Fatalf("round %d key %s: unanimous %v, but aggregate is the first dict's tensor: %v", round, k, unanimous[k], got[k] == dicts[0][k])
			}
		}
		if math.Signbit(got["c"].Data()[1]) {
			t.Fatalf("round %d: a -0 in every client summed to -0, want the +0 a zero-filled sum gives", round)
		}
		if round == 0 {
			keptC = got["c"]
		} else if got["c"] != keptC {
			t.Fatalf("round %d: key c was summed into a new tensor, not the one Reset kept", round)
		}
		gu, gb := reused.UnanimityStats()
		if wu, wb := fresh.UnanimityStats(); gu != wu || gb != wb {
			t.Fatalf("round %d: unanimity %d/%d, fresh %d/%d", round, gu, gb, wu, wb)
		}
		for i, d := range folded {
			for k, v := range d {
				if !v.EqualBits(kept[i][k]) {
					t.Fatalf("round %d wrote into round %d client %d's %s", round, i/len(weights), i%len(weights), k)
				}
			}
		}
	}
}
