package fl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"reffil/internal/tensor"
)

// Property: the FedAvg aggregate is a convex combination, so every
// aggregated element lies within the elementwise [min, max] of the client
// values.
func TestQuickWeightedAverageWithinHull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		dim := 1 + r.Intn(6)
		dicts := make([]map[string]*tensor.Tensor, n)
		weights := make([]float64, n)
		for i := range dicts {
			dicts[i] = map[string]*tensor.Tensor{"w": tensor.RandN(r, 1, dim)}
			weights[i] = 0.1 + r.Float64()*5
		}
		avg, err := weightedAverage(dicts, weights)
		if err != nil {
			return false
		}
		for j := 0; j < dim; j++ {
			lo, hi := dicts[0]["w"].At(j), dicts[0]["w"].At(j)
			for i := 1; i < n; i++ {
				v := dicts[i]["w"].At(j)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			got := avg["w"].At(j)
			if got < lo-1e-9 || got > hi+1e-9 {
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

// Property: aggregation is invariant to uniform weight scaling.
func TestQuickWeightedAverageScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		dicts := make([]map[string]*tensor.Tensor, n)
		w1 := make([]float64, n)
		w2 := make([]float64, n)
		scale := 0.5 + r.Float64()*10
		for i := range dicts {
			dicts[i] = map[string]*tensor.Tensor{"w": tensor.RandN(r, 1, 3)}
			w1[i] = 0.1 + r.Float64()*2
			w2[i] = w1[i] * scale
		}
		a1, err := weightedAverage(dicts, w1)
		if err != nil {
			return false
		}
		a2, err := weightedAverage(dicts, w2)
		if err != nil {
			return false
		}
		return a1["w"].AllClose(a2["w"], 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
