package checkpoint

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"reffil/internal/tensor"
)

// Property: any randomly shaped state dict survives a Marshal/Unmarshal
// round trip exactly.
func TestQuickRoundTripArbitraryDicts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dict := make(map[string]*tensor.Tensor)
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			rank := r.Intn(4)
			shape := make([]int, rank)
			for d := range shape {
				shape[d] = 1 + r.Intn(4)
			}
			dict[fmt.Sprintf("t%d", i)] = tensor.RandN(r, 1, shape...)
		}
		enc, err := Marshal(dict)
		if err != nil {
			return false
		}
		back, err := Unmarshal(enc)
		if err != nil || len(back) != len(dict) {
			return false
		}
		for k, v := range dict {
			got, ok := back[k]
			if !ok || !got.SameShape(v) || !got.AllClose(v, 0) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: random byte corruption of a checkpoint never panics Unmarshal —
// it either errors or (for data-section flips) yields a loadable dict.
func TestQuickCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := map[string]*tensor.Tensor{
		"w": tensor.RandN(rng, 1, 4, 3),
		"b": tensor.RandN(rng, 1, 3),
	}
	raw, err := Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		corrupted := append([]byte(nil), raw...)
		flips := 1 + r.Intn(8)
		for i := 0; i < flips; i++ {
			pos := r.Intn(len(corrupted))
			corrupted[pos] ^= byte(1 << r.Intn(8))
		}
		_, _ = Unmarshal(corrupted)
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
