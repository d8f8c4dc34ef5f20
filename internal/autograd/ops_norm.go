package autograd

import (
	"fmt"
	"math"

	"reffil/internal/tensor"
)

// LayerNorm normalizes x over its last axis and applies the affine
// transform gamma*xhat + beta. gamma and beta are 1-D of the last-axis size.
func LayerNorm(x, gamma, beta *Value, eps float64) (*Value, error) {
	d := x.T.Dim(x.T.NDim() - 1)
	if gamma.T.NDim() != 1 || gamma.T.Dim(0) != d || beta.T.NDim() != 1 || beta.T.Dim(0) != d {
		return nil, fmt.Errorf("autograd: LayerNorm affine shapes %v/%v, want (%d,)", gamma.T.Shape(), beta.T.Shape(), d)
	}
	rows := x.T.Size() / d
	// The loop below writes every element of all three.
	ar := x.T.Arena()
	out := ar.ScratchLike(x.T)
	xhatT, invStdT := ar.ScratchLike(x.T), ar.Scratch(rows)
	xhat, invStd := xhatT.Data(), invStdT.Data()
	xd, od := x.T.Data(), out.Data()
	gd, bd := gamma.T.Data(), beta.T.Data()
	for r := 0; r < rows; r++ {
		row := xd[r*d : (r+1)*d]
		mu := 0.0
		for _, v := range row {
			mu += v
		}
		mu /= float64(d)
		varSum := 0.0
		for _, v := range row {
			dv := v - mu
			varSum += dv * dv
		}
		is := 1 / math.Sqrt(varSum/float64(d)+eps)
		invStd[r] = is
		for i, v := range row {
			xh := (v - mu) * is
			xhat[r*d+i] = xh
			od[r*d+i] = gd[i]*xh + bd[i]
		}
	}
	node := newNode(out, "layernorm", layerNormBackward, x, gamma, beta)
	node.saved[0], node.saved[1] = xhatT, invStdT
	return node, nil
}

// layerNormBackward reads xhat and the rows' inverse deviations from
// n.saved.
func layerNormBackward(n *Value) {
	x, gamma, beta := n.parents[0], n.parents[1], n.parents[2]
	d := x.T.Dim(x.T.NDim() - 1)
	rows := x.T.Size() / d
	ar := n.T.Arena()
	xhat, invStd := n.saved[0].Data(), n.saved[1].Data()
	ng, gd := n.Grad.Data(), gamma.T.Data()
	if gamma.requiresGrad {
		gg := ar.New(d)
		for r := 0; r < rows; r++ {
			for i := 0; i < d; i++ {
				gg.Data()[i] += ng[r*d+i] * xhat[r*d+i]
			}
		}
		accumulateTemp(gamma, gg)
	}
	if beta.requiresGrad {
		gb := ar.New(d)
		for r := 0; r < rows; r++ {
			for i := 0; i < d; i++ {
				gb.Data()[i] += ng[r*d+i]
			}
		}
		accumulateTemp(beta, gb)
	}
	if x.requiresGrad {
		gx := ar.ScratchLike(x.T)
		gxd := gx.Data()
		df := float64(d)
		for r := 0; r < rows; r++ {
			// dxhat_i = dout_i * gamma_i
			sumDxhat := 0.0
			sumDxhatXhat := 0.0
			for i := 0; i < d; i++ {
				dxh := ng[r*d+i] * gd[i]
				sumDxhat += dxh
				sumDxhatXhat += dxh * xhat[r*d+i]
			}
			is := invStd[r]
			for i := 0; i < d; i++ {
				dxh := ng[r*d+i] * gd[i]
				gxd[r*d+i] = is * (dxh - sumDxhat/df - xhat[r*d+i]*sumDxhatXhat/df)
			}
		}
		accumulateTemp(x, gx)
	}
}

// BatchNormStats carries the running statistics of a BatchNorm2D layer.
// During training forwards the running mean/variance are updated in place
// with the given momentum; during evaluation they parameterize the
// normalization directly.
type BatchNormStats struct {
	Mean, Var *tensor.Tensor // shape (C,)
	Momentum  float64
	Eps       float64
}

// BatchNorm2D normalizes x (B,C,H,W) per channel. In training mode the batch
// statistics are used (and folded into stats with stats.Momentum); in eval
// mode stats.Mean/Var are used. gamma and beta are per-channel affines.
func BatchNorm2D(x, gamma, beta *Value, stats *BatchNormStats, training bool) (*Value, error) {
	if x.T.NDim() != 4 {
		return nil, fmt.Errorf("autograd: BatchNorm2D wants 4-D input, got %v", x.T.Shape())
	}
	bs, c, h, w := x.T.Dim(0), x.T.Dim(1), x.T.Dim(2), x.T.Dim(3)
	if gamma.T.Dim(0) != c || beta.T.Dim(0) != c {
		return nil, fmt.Errorf("autograd: BatchNorm2D affine size mismatch (C=%d)", c)
	}
	n := bs * h * w
	hw := h * w
	xd := x.T.Data()
	// Every side buffer below is written in full before it is read.
	ar := x.T.Arena()
	mean := ar.Scratch(c).Data()
	variance := ar.Scratch(c).Data()
	if training {
		for ch := 0; ch < c; ch++ {
			s := 0.0
			for b := 0; b < bs; b++ {
				plane := xd[(b*c+ch)*hw : (b*c+ch+1)*hw]
				for _, v := range plane {
					s += v
				}
			}
			mean[ch] = s / float64(n)
		}
		for ch := 0; ch < c; ch++ {
			s := 0.0
			for b := 0; b < bs; b++ {
				plane := xd[(b*c+ch)*hw : (b*c+ch+1)*hw]
				for _, v := range plane {
					dv := v - mean[ch]
					s += dv * dv
				}
			}
			variance[ch] = s / float64(n)
		}
		// Fold into the running statistics.
		m := stats.Momentum
		for ch := 0; ch < c; ch++ {
			stats.Mean.Data()[ch] = (1-m)*stats.Mean.Data()[ch] + m*mean[ch]
			stats.Var.Data()[ch] = (1-m)*stats.Var.Data()[ch] + m*variance[ch]
		}
	} else {
		copy(mean, stats.Mean.Data())
		copy(variance, stats.Var.Data())
	}

	invStdT := ar.Scratch(c)
	invStd := invStdT.Data()
	for ch := 0; ch < c; ch++ {
		invStd[ch] = 1 / math.Sqrt(variance[ch]+stats.Eps)
	}
	out := ar.ScratchLike(x.T)
	xhatT := ar.ScratchLike(x.T)
	xhat := xhatT.Data()
	od := out.Data()
	gd, bd := gamma.T.Data(), beta.T.Data()
	for b := 0; b < bs; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				xh := (xd[base+i] - mean[ch]) * invStd[ch]
				xhat[base+i] = xh
				od[base+i] = gd[ch]*xh + bd[ch]
			}
		}
	}

	node := newNode(out, "batchnorm2d", batchNorm2DBackward, x, gamma, beta)
	node.saved[0], node.saved[1] = xhatT, invStdT
	if training {
		node.ints[0] = 1
	}
	return node, nil
}

// batchNorm2DBackward reads xhat and the channels' inverse deviations from
// n.saved, and whether the forward used the batch's statistics from
// n.ints[0] (1 when it did).
func batchNorm2DBackward(n *Value) {
	x, gamma, beta := n.parents[0], n.parents[1], n.parents[2]
	bs, c, h, w := x.T.Dim(0), x.T.Dim(1), x.T.Dim(2), x.T.Dim(3)
	hw := h * w
	ar := n.T.Arena()
	xhat, invStd := n.saved[0].Data(), n.saved[1].Data()
	ng, gd := n.Grad.Data(), gamma.T.Data()
	if gamma.requiresGrad {
		gg := ar.New(c)
		for b := 0; b < bs; b++ {
			for ch := 0; ch < c; ch++ {
				base := (b*c + ch) * hw
				s := 0.0
				for i := 0; i < hw; i++ {
					s += ng[base+i] * xhat[base+i]
				}
				gg.Data()[ch] += s
			}
		}
		accumulateTemp(gamma, gg)
	}
	if beta.requiresGrad {
		gb := ar.New(c)
		for b := 0; b < bs; b++ {
			for ch := 0; ch < c; ch++ {
				base := (b*c + ch) * hw
				s := 0.0
				for i := 0; i < hw; i++ {
					s += ng[base+i]
				}
				gb.Data()[ch] += s
			}
		}
		accumulateTemp(beta, gb)
	}
	if !x.requiresGrad {
		return
	}
	gx := ar.ScratchLike(x.T)
	gxd := gx.Data()
	if n.ints[0] == 0 {
		// Eval mode: out is an affine function of x.
		for b := 0; b < bs; b++ {
			for ch := 0; ch < c; ch++ {
				base := (b*c + ch) * hw
				k := gd[ch] * invStd[ch]
				for i := 0; i < hw; i++ {
					gxd[base+i] = ng[base+i] * k
				}
			}
		}
		accumulateTemp(x, gx)
		return
	}
	nf := float64(bs * hw)
	for ch := 0; ch < c; ch++ {
		sumDxhat := 0.0
		sumDxhatXhat := 0.0
		for b := 0; b < bs; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				dxh := ng[base+i] * gd[ch]
				sumDxhat += dxh
				sumDxhatXhat += dxh * xhat[base+i]
			}
		}
		for b := 0; b < bs; b++ {
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				dxh := ng[base+i] * gd[ch]
				gxd[base+i] = invStd[ch] * (dxh - sumDxhat/nf - xhat[base+i]*sumDxhatXhat/nf)
			}
		}
	}
	accumulateTemp(x, gx)
}
