package autograd

import (
	"math/rand"
	"testing"

	"reffil/internal/tensor"
)

// BenchmarkConv2D times one forward and backward pass of Conv2D at B=8 for
// every convolution of the ResNet10 backbone at the default model
// configuration (base width 4, 16×16 images), as a sub-benchmark per layer.
// As in training, the stem's input is data, so the stem computes no input
// gradient; every other layer computes both gradients. The pass runs from
// one arena, reset after each iteration, as a training step's does.
func BenchmarkConv2D(b *testing.B) {
	const bs = 8
	for _, s := range []struct {
		name                     string
		c, hw, o, k, stride, pad int
	}{
		{"stem", 3, 16, 4, 3, 1, 1},
		{"stage1", 4, 16, 4, 3, 1, 1},
		{"stage2.conv1", 4, 16, 8, 3, 2, 1},
		{"stage2.conv2", 8, 8, 8, 3, 1, 1},
		{"stage2.down", 4, 16, 8, 1, 2, 0},
		{"stage3.conv1", 8, 8, 16, 3, 2, 1},
		{"stage3.conv2", 16, 4, 16, 3, 1, 1},
		{"stage3.down", 8, 8, 16, 1, 2, 0},
		{"stage4.conv1", 16, 4, 32, 3, 2, 1},
		{"stage4.conv2", 32, 2, 32, 3, 1, 1},
		{"stage4.down", 16, 4, 32, 1, 2, 0},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			x := tensor.RandN(rng, 1, bs, s.c, s.hw, s.hw)
			w := Param(tensor.RandN(rng, 1, s.o, s.c, s.k, s.k))
			var ar tensor.Arena
			b.ReportAllocs()
			for b.Loop() {
				w.ZeroGrad()
				out, err := Conv2D(NewLeaf(ar.Wrap(x), s.name != "stem"), w, nil, s.stride, s.pad)
				if err != nil {
					b.Fatal(err)
				}
				if err := Backward(Sum(out)); err != nil {
					b.Fatal(err)
				}
				ar.Reset()
			}
		})
	}
}
