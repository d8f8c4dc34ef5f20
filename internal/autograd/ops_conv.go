package autograd

import (
	"fmt"

	"reffil/internal/tensor"
)

// gwPartials is how many weight-gradient partial sums Conv2D's backward
// splits the batch into. The count depends on nothing but the batch size,
// and the partials are reduced in chunk order, which fixes the order every
// weight gradient's adds run in.
const gwPartials = 8

// Conv2D convolves x (B,C,H,W) with weights w (O,C,kh,kw) and optional bias
// b (O,), using the given stride and zero padding. The forward pass uses
// im2col + matmul. Only the weight gradient re-reads an image's column
// matrix, so when w requires grad every image's columns are kept for
// backward, in one (B·C·kh·kw, OutH·OutW) tensor saved on the node, and when
// it does not one image's columns are rewritten for each and released after
// the last — an evaluation forward then holds one image's columns, not the
// batch's. Like every other temporary here they are drawn from x's arena,
// whose Reset reclaims kept columns whether or not the tape is ever
// backpropagated. Both passes loop over the batch one image at a time on
// the calling goroutine.
func Conv2D(x, w, b *Value, stride, pad int) (*Value, error) {
	if x.T.NDim() != 4 || w.T.NDim() != 4 {
		return nil, fmt.Errorf("autograd: Conv2D wants 4-D x and w, got %v and %v", x.T.Shape(), w.T.Shape())
	}
	bs, c, h, wd := x.T.Dim(0), x.T.Dim(1), x.T.Dim(2), x.T.Dim(3)
	o, cw, kh, kw := w.T.Dim(0), w.T.Dim(1), w.T.Dim(2), w.T.Dim(3)
	if c != cw {
		return nil, fmt.Errorf("autograd: Conv2D channel mismatch: x has %d, w has %d", c, cw)
	}
	if b != nil && (b.T.NDim() != 1 || b.T.Dim(0) != o) {
		return nil, fmt.Errorf("autograd: Conv2D bias shape %v, want (%d,)", b.T.Shape(), o)
	}
	geom, err := tensor.NewConvGeom(c, h, wd, kh, kw, stride, pad)
	if err != nil {
		return nil, err
	}
	k := c * kh * kw
	p := geom.OutH * geom.OutW
	wMat := w.T.Data() // (o,k) row-major

	ar := tensor.ArenaOf(x.T, w.T)
	out := ar.New(bs, o, geom.OutH, geom.OutW)
	// Image i's columns start at i*span: every image has its own block when
	// they are kept, and they all share the one block when they are not.
	// Im2col writes every position.
	cols, span := ar.Scratch(k, p), 0
	if w.requiresGrad {
		cols, span = ar.Scratch(bs*k, p), k*p
	}
	imgLen := c * h * wd
	for i := 0; i < bs; i++ {
		col := cols.Data()[i*span : i*span+k*p]
		geom.Im2col(x.T.Data()[i*imgLen:(i+1)*imgLen], col)
		// out is zeroed and images are row-disjoint, so the product
		// accumulates straight into this image's slice of it.
		res := out.Data()[i*o*p : (i+1)*o*p]
		tensor.MulInto(res, wMat, col, o, k, p)
		if b != nil {
			for ch := 0; ch < o; ch++ {
				bv := b.T.Data()[ch]
				row := res[ch*p : (ch+1)*p]
				for j := range row {
					row[j] += bv
				}
			}
		}
	}

	node := newNode(out, "conv2d", conv2DBackward, x, w, b)
	node.ints[0], node.ints[1] = stride, pad
	if span == 0 {
		cols.Release()
	} else {
		node.saved[0] = cols
	}
	return node, nil
}

// conv2DBackward reads the stride and padding from n.ints and the kept
// columns, nil when w required no grad at the forward, from n.saved[0].
func conv2DBackward(n *Value) {
	x, w, b := n.parents[0], n.parents[1], n.parents[2]
	bs, c, h, wd := x.T.Dim(0), x.T.Dim(1), x.T.Dim(2), x.T.Dim(3)
	o, kh, kw := w.T.Dim(0), w.T.Dim(2), w.T.Dim(3)
	geom, _ := tensor.NewConvGeom(c, h, wd, kh, kw, n.ints[0], n.ints[1]) // checked by the forward
	k := c * kh * kw
	p := geom.OutH * geom.OutW
	ar := n.T.Arena()
	gd := n.Grad.Data()
	if cols := n.saved[0]; cols != nil {
		// Each of a fixed number of batch chunks sums its images'
		// products into a partial of its own, and the partials are
		// reduced in chunk order. The chunk boundaries depend only on
		// the batch size, so the adds run in one order at any batch,
		// and the extra memory is at most gwPartials (o,k) tensors.
		nChunks := max(min(gwPartials, bs), 1)
		per := (bs + nChunks - 1) / nChunks
		var chunks [gwPartials]*tensor.Tensor
		partials := chunks[:nChunks]
		cd := cols.Data()
		for c := range partials {
			acc := ar.New(o, k)
			hi := min((c+1)*per, bs)
			for i := c * per; i < hi; i++ {
				tensor.MulT2Into(acc.Data(), gd[i*o*p:(i+1)*o*p], cd[i*k*p:(i+1)*k*p], o, p, k)
			}
			partials[c] = acc
		}
		// gw is (o,k), w (o,c,kh,kw): the same elements in the same
		// order, which is all accumulating it needs.
		gw := partials[0]
		for _, part := range partials[1:] {
			gw.AddInPlace(part)
			part.Release()
		}
		accumulateTemp(w, gw)
	}
	if b != nil && b.requiresGrad {
		gb := ar.New(o)
		for i := 0; i < bs; i++ {
			for ch := 0; ch < o; ch++ {
				s := 0.0
				row := gd[(i*o+ch)*p : (i*o+ch+1)*p]
				for _, v := range row {
					s += v
				}
				gb.Data()[ch] += s
			}
		}
		accumulateTemp(b, gb)
	}
	if x.requiresGrad {
		imgLen := c * h * wd
		gx := ar.NewLike(x.T)
		buf := ar.Scratch(geom.GradBlockLen())
		for i := 0; i < bs; i++ {
			geom.InputGrad(gx.Data()[i*imgLen:(i+1)*imgLen], w.T.Data(), gd[i*o*p:(i+1)*o*p], buf.Data())
		}
		buf.Release()
		accumulateTemp(x, gx)
	}
}
