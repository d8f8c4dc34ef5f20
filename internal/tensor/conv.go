package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride, Pad   int
	OutH, OutW    int // derived output spatial dims
}

// NewConvGeom validates and completes a convolution geometry.
func NewConvGeom(inC, inH, inW, kh, kw, stride, pad int) (ConvGeom, error) {
	if stride <= 0 {
		return ConvGeom{}, fmt.Errorf("tensor: conv stride must be positive, got %d", stride)
	}
	if pad < 0 {
		return ConvGeom{}, fmt.Errorf("tensor: conv pad must be non-negative, got %d", pad)
	}
	outH := (inH+2*pad-kh)/stride + 1
	outW := (inW+2*pad-kw)/stride + 1
	if outH <= 0 || outW <= 0 {
		return ConvGeom{}, fmt.Errorf("tensor: conv kernel %dx%d does not fit input %dx%d (pad %d)", kh, kw, inH, inW, pad)
	}
	return ConvGeom{InC: inC, InH: inH, InW: inW, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: outH, OutW: outW}, nil
}

// oxRange returns the output columns [lo,hi) whose input column
// ox*Stride + kj - Pad lies inside the image for kernel column kj, and the
// input column of lo when the range is not empty. Every other output column
// reads padding.
func (g ConvGeom) oxRange(kj int) (lo, hi, ix0 int) {
	off := kj - g.Pad
	if off < 0 {
		lo = (-off + g.Stride - 1) / g.Stride
	}
	if last := g.InW - 1 - off; last >= 0 {
		hi = min(last/g.Stride+1, g.OutW)
	}
	lo = min(lo, hi)
	return lo, hi, lo*g.Stride + off
}

// Im2col unfolds a single image (C,H,W laid out contiguously in img) into a
// column matrix of shape (C*KH*KW, OutH*OutW) written into cols, which must
// have exactly that capacity. Padding positions contribute zeros.
//
// The image bounds are settled once per kernel tap: an output row whose input
// row is padding is cleared whole, and a row inside the image is a cleared
// left margin, the image run [lo,hi) from oxRange and a cleared right margin.
func (g ConvGeom) Im2col(img []float64, cols []float64) {
	colW := g.OutH * g.OutW
	if len(cols) != g.InC*g.KH*g.KW*colW {
		panic(fmt.Sprintf("tensor: Im2col cols length %d, want %d", len(cols), g.InC*g.KH*g.KW*colW))
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		chImg := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				dst := cols[row*colW : (row+1)*colW]
				lo, hi, ix0 := g.oxRange(kj)
				for oy := 0; oy < g.OutH; oy++ {
					out := dst[oy*g.OutW : (oy+1)*g.OutW]
					iy := oy*g.Stride + ki - g.Pad
					if iy < 0 || iy >= g.InH || lo == hi {
						clear(out)
						continue
					}
					clear(out[:lo])
					src := chImg[iy*g.InW+ix0 : (iy+1)*g.InW]
					if g.Stride == 1 {
						copy(out[lo:hi], src)
					} else {
						run := out[lo:hi]
						for q := range run {
							run[q] = src[q*g.Stride]
						}
					}
					clear(out[hi:])
				}
				row++
			}
		}
	}
}

// Col2im folds a column matrix (C*KH*KW, OutH*OutW) back into image
// gradients, accumulating overlapping contributions into img (C,H,W).
// img is expected to be zeroed by the caller when a fresh gradient is wanted.
// Padding positions are skipped by the same per-tap ranges Im2col uses, so
// each image element receives its adds in row, then column-matrix order.
func (g ConvGeom) Col2im(cols []float64, img []float64) {
	colW := g.OutH * g.OutW
	row := 0
	for c := 0; c < g.InC; c++ {
		chImg := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				src := cols[row*colW : (row+1)*colW]
				lo, hi, ix0 := g.oxRange(kj)
				for oy := 0; oy < g.OutH; oy++ {
					iy := oy*g.Stride + ki - g.Pad
					if iy < 0 || iy >= g.InH || lo == hi {
						continue
					}
					run := src[oy*g.OutW+lo : oy*g.OutW+hi]
					dst := chImg[iy*g.InW+ix0 : (iy+1)*g.InW]
					if g.Stride == 1 {
						dst = dst[:len(run)]
						for q, v := range run {
							dst[q] += v
						}
					} else {
						for q, v := range run {
							dst[q*g.Stride] += v
						}
					}
				}
				row++
			}
		}
	}
}

// gradBlockFloats is the size InputGrad aims its column-gradient block at:
// as many whole channels as fit, and at least one. The block then stays in
// the first cache levels between the matmul that writes it and the fold
// that reads it. Timed over the default model's layers on a 2-core Xeon,
// budgets from 2048 to 16384 floats and the whole matrix came within noise
// of each other; 8192 with the even blocks below was the fastest at the
// largest layer, the first stage (4 channels, 16×16).
const gradBlockFloats = 8192

// gradBlockChannels returns how many channels InputGrad builds at a time.
// For a kernel with an odd tap count a block of several channels but not all
// of them takes an even number, so that its rows split into the row pairs
// of matmulRows's tiles with no single row left to the slower one-row tile.
func (g ConvGeom) gradBlockChannels() int {
	kk := g.KH * g.KW
	per := max(1, min(g.InC, gradBlockFloats/(kk*g.OutH*g.OutW)))
	if per > 1 && per < g.InC && per*kk%2 == 1 {
		per--
	}
	return per
}

// GradBlockLen returns the length of the buffer InputGrad works in.
func (g ConvGeom) GradBlockLen() int {
	return g.gradBlockChannels() * g.KH * g.KW * g.OutH * g.OutW
}

// InputGrad adds one image's input gradient into dx (C,H,W): the Col2im fold
// of wᵀ·dy, for the (O, C·KH·KW) weight matrix w and the image's
// (O, OutH·OutW) output gradient dy. It builds that column gradient a few
// whole channels at a time in buf, which must be GradBlockLen long and whose
// contents on entry do not matter, and folds each block before building the
// next, so the whole (C·KH·KW, OutH·OutW) matrix never exists.
//
// Column-gradient element (r,j) is MatMulT1's chain for wᵀ·dy: it starts at
// +0 and adds w(o,r)·dy(o,j) over ascending o, skipping a zero w. A dx
// element receives rows of its own channel only, in ascending row order, so
// splitting the rows at channel boundaries leaves every add in the order
// Col2im of the whole matrix gives it.
func (g ConvGeom) InputGrad(dx, w, dy, buf []float64) {
	kk, p, hw := g.KH*g.KW, g.OutH*g.OutW, g.InH*g.InW
	k := g.InC * kk
	o := len(w) / k
	if len(w) != o*k || len(dy) != o*p || len(dx) != g.InC*hw || len(buf) != g.GradBlockLen() {
		panic(fmt.Sprintf("tensor: InputGrad lengths dx %d, w %d, dy %d, buf %d for geometry %+v", len(dx), len(w), len(dy), len(buf), g))
	}
	per := g.gradBlockChannels()
	block := g
	for c0 := 0; c0 < g.InC; c0 += per {
		block.InC = min(per, g.InC-c0)
		rows := block.InC * kk
		cols := buf[:rows*p]
		clear(cols)
		matmulRows(cols, w[c0*kk:], dy, rows, o, p, 1, k)
		block.Col2im(cols, dx[c0*hw:(c0+block.InC)*hw])
	}
}
