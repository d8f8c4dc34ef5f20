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
// matrix, so the columns are kept for backward when w requires grad and
// released right after their image's matmul when it does not — an
// evaluation forward then holds one image's columns at a time, not the
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
	keep := w.requiresGrad
	var cols []*tensor.Tensor
	if keep {
		cols = make([]*tensor.Tensor, bs)
	}
	imgLen := c * h * wd
	for i := 0; i < bs; i++ {
		col := ar.Scratch(k, p) // Im2col writes every position
		geom.Im2col(x.T.Data()[i*imgLen:(i+1)*imgLen], col.Data())
		// out is zeroed and images are row-disjoint, so the product
		// accumulates straight into this image's slice of it.
		res := out.Data()[i*o*p : (i+1)*o*p]
		tensor.MulInto(res, wMat, col.Data(), o, k, p)
		if keep {
			cols[i] = col
		} else {
			col.Release()
		}
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

	node := newNode(out, "conv2d", x, w, b)
	node.back = func() {
		if keep {
			// Each of a fixed number of batch chunks sums its images'
			// products into a partial of its own, and the partials are
			// reduced in chunk order. The chunk boundaries depend only on
			// the batch size, so the adds run in one order at any batch,
			// and the extra memory is at most gwPartials (o,k) tensors.
			nChunks := max(min(gwPartials, bs), 1)
			per := (bs + nChunks - 1) / nChunks
			var chunks [gwPartials]*tensor.Tensor
			partials := chunks[:nChunks]
			for c := range partials {
				acc := ar.New(o, k)
				hi := min((c+1)*per, bs)
				for i := c * per; i < hi; i++ {
					tensor.MulT2Into(acc.Data(), node.Grad.Data()[i*o*p:(i+1)*o*p], cols[i].Data(), o, p, k)
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
			gd := node.Grad.Data()
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
			gx := ar.NewLike(x.T)
			buf := ar.Scratch(geom.GradBlockLen())
			for i := 0; i < bs; i++ {
				geom.InputGrad(gx.Data()[i*imgLen:(i+1)*imgLen], wMat, node.Grad.Data()[i*o*p:(i+1)*o*p], buf.Data())
			}
			buf.Release()
			accumulateTemp(x, gx)
		}
	}
	return node, nil
}
