package nn

import (
	"fmt"
	"math/rand"

	"reffil/internal/autograd"
)

// BasicBlock is the two-convolution residual block of ResNet, with an
// optional 1x1 downsampling projection on the skip path.
type BasicBlock struct {
	lists
	conv1, conv2 *Conv2d
	bn1, bn2     *BatchNorm2d
	downConv     *Conv2d      // nil when the skip is an identity
	downBN       *BatchNorm2d // nil when the skip is an identity
}

// NewBasicBlock builds a residual block mapping inC channels to outC with
// the given stride on the first convolution.
func NewBasicBlock(name string, rng *rand.Rand, inC, outC, stride int) *BasicBlock {
	b := &BasicBlock{
		conv1: NewConv2d(name+".conv1", rng, inC, outC, 3, stride, 1, false),
		bn1:   NewBatchNorm2d(name+".bn1", outC),
		conv2: NewConv2d(name+".conv2", rng, outC, outC, 3, 1, 1, false),
		bn2:   NewBatchNorm2d(name+".bn2", outC),
	}
	if stride != 1 || inC != outC {
		b.downConv = NewConv2d(name+".down.conv", rng, inC, outC, 1, stride, 0, false)
		b.downBN = NewBatchNorm2d(name+".down.bn", outC)
	}
	return b.listed()
}

// Clone returns a deep copy sharing no tensors with b.
func (b *BasicBlock) Clone() *BasicBlock {
	c := &BasicBlock{
		conv1: b.conv1.Clone(),
		conv2: b.conv2.Clone(),
		bn1:   b.bn1.Clone(),
		bn2:   b.bn2.Clone(),
	}
	if b.downConv != nil {
		c.downConv = b.downConv.Clone()
		c.downBN = b.downBN.Clone()
	}
	return c.listed()
}

// listed builds the block's lists from its layers'.
func (b *BasicBlock) listed() *BasicBlock {
	if b.downConv == nil {
		b.set(join(b.conv1.Params(), b.bn1.Params(), b.conv2.Params(), b.bn2.Params()),
			join(b.bn1.Buffers(), b.bn2.Buffers()))
		return b
	}
	b.set(join(b.conv1.Params(), b.bn1.Params(), b.conv2.Params(), b.bn2.Params(), b.downConv.Params(), b.downBN.Params()),
		join(b.bn1.Buffers(), b.bn2.Buffers(), b.downBN.Buffers()))
	return b
}

// Forward applies the residual block.
func (b *BasicBlock) Forward(ctx *Ctx, x *autograd.Value) (*autograd.Value, error) {
	h, err := b.conv1.Forward(x)
	if err != nil {
		return nil, err
	}
	if h, err = b.bn1.Forward(ctx, h); err != nil {
		return nil, err
	}
	h = autograd.ReLU(h)
	if h, err = b.conv2.Forward(h); err != nil {
		return nil, err
	}
	if h, err = b.bn2.Forward(ctx, h); err != nil {
		return nil, err
	}
	skip := x
	if b.downConv != nil {
		if skip, err = b.downConv.Forward(x); err != nil {
			return nil, err
		}
		if skip, err = b.downBN.Forward(ctx, skip); err != nil {
			return nil, err
		}
	}
	return autograd.ReLU(autograd.Add(h, skip)), nil
}

var _ Module = (*BasicBlock)(nil)

// ResNet10 is the paper's feature-extractor backbone: a convolutional stem
// followed by four stages of one BasicBlock each (strides 1,2,2,2), so the
// spatial resolution shrinks by 8x and the channel width grows 8x from the
// base width. The 10 weighted layers are the stem, 8 block convolutions and
// (in the paper) a final classifier — the classifier lives outside this
// module here because RefFiL inserts the prompt/attention stage before it.
type ResNet10 struct {
	lists
	stem   *Conv2d
	stemBN *BatchNorm2d
	stages [4]*BasicBlock
	baseW  int
	OutC   int // channel width of the returned feature map (8 * base)
}

// NewResNet10 builds the backbone for 3-channel input with the given base
// width.
func NewResNet10(name string, rng *rand.Rand, baseWidth int) *ResNet10 {
	r := &ResNet10{
		stem:   NewConv2d(name+".stem", rng, 3, baseWidth, 3, 1, 1, false),
		stemBN: NewBatchNorm2d(name+".stem_bn", baseWidth),
		baseW:  baseWidth,
		OutC:   baseWidth * 8,
	}
	widths := [4]int{baseWidth, baseWidth * 2, baseWidth * 4, baseWidth * 8}
	strides := [4]int{1, 2, 2, 2}
	in := baseWidth
	for i := range r.stages {
		r.stages[i] = NewBasicBlock(fmt.Sprintf("%s.stage%d", name, i+1), rng, in, widths[i], strides[i])
		in = widths[i]
	}
	return r.listed()
}

// Clone returns a deep copy sharing no tensors with r.
func (r *ResNet10) Clone() *ResNet10 {
	c := &ResNet10{
		stem:   r.stem.Clone(),
		stemBN: r.stemBN.Clone(),
		baseW:  r.baseW,
		OutC:   r.OutC,
	}
	for i, s := range r.stages {
		c.stages[i] = s.Clone()
	}
	return c.listed()
}

// listed builds the backbone's lists from its layers'.
func (r *ResNet10) listed() *ResNet10 {
	ps, bs := [][]Param{r.stem.Params(), r.stemBN.Params()}, [][]Buffer{r.stemBN.Buffers()}
	for _, s := range r.stages {
		ps, bs = append(ps, s.Params()), append(bs, s.Buffers())
	}
	r.set(join(ps...), join(bs...))
	return r
}

// Forward maps x (B,3,H,W) to a feature map (B, 8*base, H/8, W/8).
func (r *ResNet10) Forward(ctx *Ctx, x *autograd.Value) (*autograd.Value, error) {
	h, err := r.stem.Forward(x)
	if err != nil {
		return nil, err
	}
	if h, err = r.stemBN.Forward(ctx, h); err != nil {
		return nil, err
	}
	h = autograd.ReLU(h)
	for _, s := range r.stages {
		if h, err = s.Forward(ctx, h); err != nil {
			return nil, err
		}
	}
	return h, nil
}

var _ Module = (*ResNet10)(nil)
