package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests in this file hold the training step's data-movement passes —
// the conv unfold and fold, the blocked input gradient, MulT2Into, ReLU
// and Add — to the straightforward code they replaced, kept here verbatim
// as references, bit for bit.

// im2colRef is Im2col as it was: a bounds test per column-matrix element.
func im2colRef(g ConvGeom, img []float64, cols []float64) {
	colW := g.OutH * g.OutW
	row := 0
	for c := 0; c < g.InC; c++ {
		chImg := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				dst := cols[row*colW : (row+1)*colW]
				p := 0
				for oy := 0; oy < g.OutH; oy++ {
					iy := oy*g.Stride + ki - g.Pad
					if iy < 0 || iy >= g.InH {
						for ox := 0; ox < g.OutW; ox++ {
							dst[p] = 0
							p++
						}
						continue
					}
					rowImg := chImg[iy*g.InW : (iy+1)*g.InW]
					for ox := 0; ox < g.OutW; ox++ {
						ix := ox*g.Stride + kj - g.Pad
						if ix < 0 || ix >= g.InW {
							dst[p] = 0
						} else {
							dst[p] = rowImg[ix]
						}
						p++
					}
				}
				row++
			}
		}
	}
}

// col2imRef is Col2im as it was, which also marks in unpinned (when not nil)
// every image element whose adds met two NaNs with different payloads: the
// result's payload there depends on an operand order Go does not fix (see
// reference in kernel_parity_test.go).
func col2imRef(g ConvGeom, cols []float64, img []float64, unpinned []bool) {
	colW := g.OutH * g.OutW
	row := 0
	for c := 0; c < g.InC; c++ {
		chImg := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				src := cols[row*colW : (row+1)*colW]
				p := 0
				for oy := 0; oy < g.OutH; oy++ {
					iy := oy*g.Stride + ki - g.Pad
					if iy < 0 || iy >= g.InH {
						p += g.OutW
						continue
					}
					rowImg := chImg[iy*g.InW : (iy+1)*g.InW]
					for ox := 0; ox < g.OutW; ox++ {
						ix := ox*g.Stride + kj - g.Pad
						if ix >= 0 && ix < g.InW {
							if unpinned != nil && nanClash(rowImg[ix], src[p]) {
								unpinned[c*g.InH*g.InW+iy*g.InW+ix] = true
							}
							rowImg[ix] += src[p]
						}
						p++
					}
				}
				row++
			}
		}
	}
}

// specials returns n values drawn from rng with every 5th element replaced,
// in turn, by +0, −0, +Inf, −Inf, NaN, the smallest positive subnormal and
// its negation. The NaN is always math.NaN(), so two of them never clash.
func specials(rng *rand.Rand, n int) []float64 {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	x := RandN(rng, 1, n).Data()
	for i := 0; i < n; i += 5 {
		x[i] = vals[(i/5)%len(vals)]
	}
	return x
}

// geomGrid returns every valid geometry of a small grid: 1×1, 1×3, 3×1 and
// 3×3 kernels, strides 1 to 3, pads 0 to 2 (pad ≥ kernel included), odd and
// even image sides and one to three channels.
func geomGrid() []ConvGeom {
	var gs []ConvGeom
	for _, k := range [][2]int{{1, 1}, {1, 3}, {3, 1}, {3, 3}} {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 2; pad++ {
				for _, hw := range [][2]int{{1, 1}, {2, 5}, {5, 5}, {7, 4}, {8, 8}} {
					for _, c := range []int{1, 3} {
						if g, err := NewConvGeom(c, hw[0], hw[1], k[0], k[1], stride, pad); err == nil {
							gs = append(gs, g)
						}
					}
				}
			}
		}
	}
	return gs
}

func TestIm2colMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, g := range geomGrid() {
		img := specials(rng, g.InC*g.InH*g.InW)
		n := g.InC * g.KH * g.KW * g.OutH * g.OutW
		want, got := make([]float64, n), make([]float64, n)
		for i := range got {
			got[i] = 7 // every element must be written
		}
		im2colRef(g, img, want)
		g.Im2col(img, got)
		requireBitIdentical(t, fmt.Sprintf("Im2col %+v", g), got, want, nil)
	}
}

func TestCol2imMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, g := range geomGrid() {
		cols := specials(rng, g.InC*g.KH*g.KW*g.OutH*g.OutW)
		init := specials(rng, g.InC*g.InH*g.InW)
		want, got := append([]float64(nil), init...), append([]float64(nil), init...)
		unpinned := make([]bool, len(want))
		col2imRef(g, cols, want, unpinned)
		g.Col2im(cols, got)
		requireBitIdentical(t, fmt.Sprintf("Col2im %+v", g), got, want, unpinned)
	}
}

// resnetGeoms are the convolutions of the ResNet10 backbone at the default
// model configuration (base width 4, 16×16 images), with each one's output
// channel count: the stem, each stage's two 3×3 convolutions (the first of
// stages 2–4 at stride 2) and the 1×1 stride-2 downsampling projections.
var resnetGeoms = []struct {
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
}

// blockGeoms split InputGrad's column gradient into several blocks: one
// channel a block (the paper-scale stem and first stage, 32×32 at base
// width 8), even blocks with a short last one (7 channels of a 3×3 kernel
// go 2, 2, 2, 1) and a 1×1 kernel over many channels.
var blockGeoms = []struct {
	name                     string
	c, hw, o, k, stride, pad int
}{
	{"paper.stem", 3, 32, 8, 3, 1, 1},
	{"paper.stage1", 8, 32, 8, 3, 1, 1},
	{"short.last", 7, 16, 5, 3, 1, 1},
	{"wide.1x1", 40, 32, 6, 1, 1, 0},
}

// TestInputGradMatchesColumnFold holds InputGrad, which builds the column
// gradient a few channels at a time, to the whole-matrix path it replaced:
// MatMulT1(w, dy) folded by the reference Col2im. W carries exact zeros
// (the zero-skip), ±Inf and NaN, and dy carries −0, so every chain edge and
// every block boundary is exercised.
func TestInputGradMatchesColumnFold(t *testing.T) {
	if g, _ := NewConvGeom(7, 16, 16, 3, 3, 1, 1); g.gradBlockChannels() != 2 {
		t.Fatalf("short.last: %d channels a block, want 2", g.gradBlockChannels())
	}
	bothTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		for _, s := range append(resnetGeoms[:len(resnetGeoms):len(resnetGeoms)], blockGeoms...) {
			g, err := NewConvGeom(s.c, s.hw, s.hw, s.k, s.k, s.stride, s.pad)
			if err != nil {
				t.Fatal(err)
			}
			k, p := s.c*s.k*s.k, g.OutH*g.OutW
			w := specials(rng, s.o*k)
			for i := 3; i < len(w); i += 4 {
				w[i] = 0
			}
			dy := RandN(rng, 1, s.o*p).Data()
			for i := 0; i < len(dy); i += 3 {
				dy[i] = math.Copysign(0, -1)
			}
			init := RandN(rng, 1, s.c*s.hw*s.hw).Data()

			want := append([]float64(nil), init...)
			unpinned := make([]bool, len(want))
			cols := MatMulT1(FromSlice(w, s.o, k), FromSlice(dy, s.o, p))
			col2imRef(g, cols.Data(), want, unpinned)
			// A column-gradient chain that met two NaN payloads unpins every
			// dx element it is folded into: fold 1s from those chains.
			_, chainUnpinned := reference(nil, transposed(w, s.o, k), dy, k, s.o, p, true)
			marks, marked := make([]float64, len(chainUnpinned)), make([]float64, len(want))
			for i, u := range chainUnpinned {
				if u {
					marks[i] = 1
				}
			}
			col2imRef(g, marks, marked, nil)
			for i, v := range marked {
				unpinned[i] = unpinned[i] || v != 0
			}

			got := append([]float64(nil), init...)
			buf := make([]float64, g.GradBlockLen())
			for i := range buf {
				buf[i] = math.NaN() // InputGrad must not read what buf held
			}
			g.InputGrad(got, w, dy, buf)
			requireBitIdentical(t, s.name, got, want, unpinned)
		}
	})
}

// TestMatMulT2IntoMatchesAddInPlace: MulT2Into, adding a·bᵀ into out, is the
// same as adding MatMulT2's product into it with AddInPlace, out's value
// first. out is prefilled with −0 (−0 + +0 is +0, so a store would differ), NaN and
// random values.
func TestMatMulT2IntoMatchesAddInPlace(t *testing.T) {
	bothTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(54))
		for _, s := range kernelShapes {
			a, b, _ := operands(rng, s.m, s.k, s.n)
			at, bt := FromSlice(a, s.m, s.k), FromSlice(transposed(b, s.k, s.n), s.n, s.k)
			init := RandN(rng, 1, s.m, s.n).Data()
			for i := 0; i < len(init); i += 3 {
				init[i] = math.Copysign(0, -1)
			}
			for i := 1; i < len(init); i += 7 {
				init[i] = math.NaN()
			}
			prod := MatMulT2(at, bt)
			want := FromSlice(append([]float64(nil), init...), s.m, s.n)
			want.AddInPlace(prod)
			// An element is unpinned where its chain is (reference) or where
			// out's NaN meets a NaN product with a different payload.
			_, unpinned := reference(nil, a, b, s.m, s.k, s.n, false)
			for i, v := range prod.Data() {
				unpinned[i] = unpinned[i] || nanClash(init[i], v)
			}
			got := append([]float64(nil), init...)
			MulT2Into(got, a, bt.Data(), s.m, s.k, s.n)
			requireBitIdentical(t, fmt.Sprintf("%v", s), got, want.Data(), unpinned)
		}
	})
}

// reluSpecials are the inputs where a sign test and a bit mask could part:
// ±0, ±Inf, NaNs of both signs, the subnormal and normal extremes.
var reluSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022, 1, -1,
}

func TestReLUMatchesBranch(t *testing.T) {
	x := append(append([]float64(nil), reluSpecials...), RandN(rand.New(rand.NewSource(55)), 1, 64).Data()...)
	want := make([]float64, len(x)) // ReLU as it was: a branch per element
	for i, v := range x {
		if v > 0 {
			want[i] = v
		} else {
			want[i] = 0
		}
	}
	requireBitIdentical(t, "ReLU", ReLU(FromSlice(x, len(x))).Data(), want, nil)
}

// TestPositiveMaskMatchesBranch holds ReLU's backward mask to the loop it
// replaced: a zeroed gradient that copies g wherever the input is positive.
// Every input special meets every gradient special.
func TestPositiveMaskMatchesBranch(t *testing.T) {
	var x, g []float64
	for _, xv := range reluSpecials {
		for _, gv := range reluSpecials {
			x, g = append(x, xv), append(g, gv)
		}
	}
	want := make([]float64, len(x))
	for i := range x {
		if x[i] > 0 {
			want[i] = g[i]
		}
	}
	got := make([]float64, len(x))
	for i := range got {
		got[i] = math.NaN()
	}
	PositiveMask(got, g, x)
	requireBitIdentical(t, "PositiveMask", got, want, nil)
}

// TestAddMatchesBroadcastWalk holds Add's direct loops (equal shapes, and b's
// shape less its leading 1s a suffix of a's) to the broadcasting walk every
// Add took before, over special values, and checks the walk still serves the
// other shapes, including a b with more axes than a.
func TestAddMatchesBroadcastWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, sh := range [][2][]int{
		{{3, 5}, {3, 5}},
		{{2, 3, 4}, {4}},
		{{2, 3, 4}, {3, 4}},
		{{2, 3, 4}, {1, 3, 4}},
		{{2, 3, 4}, {1, 1, 4}},
		{{3, 4}, {1, 1, 4}},
		{{4}, {}},
		{{}, {}},
		{{2, 3}, {2, 1}},
		{{3, 1}, {3, 4}},
		{{4}, {2, 4}},
	} {
		a, b := FromSlice(specials(rng, sizeOf(sh[0])), sh[0]...), FromSlice(specials(rng, sizeOf(sh[1])), sh[1]...)
		want := binaryOp(a, b, func(x, y float64) float64 { return x + y })
		got := Add(a, b)
		if !got.SameShape(want) {
			t.Fatalf("Add %v + %v: shape %v, want %v", sh[0], sh[1], got.Shape(), want.Shape())
		}
		requireBitIdentical(t, fmt.Sprintf("Add %v + %v", sh[0], sh[1]), got.Data(), want.Data(), nil)
	}
}
