// Package resnet builds the ResNet-18 and ResNet-34 backbones used by
// the UFLD lane detector (the two models evaluated in the paper).
// Width and stem geometry are configurable so that the same code runs
// both the full-scale architecture (for the Orin performance model) and
// the reduced "repro" profile that pure-Go CPU training can handle.
package resnet

import (
	"fmt"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
)

// Variant selects the residual stage layout.
type Variant int

const (
	// R18 is ResNet-18: stages of [2, 2, 2, 2] basic blocks.
	R18 Variant = 18
	// R34 is ResNet-34: stages of [3, 4, 6, 3] basic blocks.
	R34 Variant = 34
)

// Blocks returns the per-stage block counts for the variant.
func (v Variant) Blocks() [4]int {
	switch v {
	case R18:
		return [4]int{2, 2, 2, 2}
	case R34:
		return [4]int{3, 4, 6, 3}
	}
	panic(fmt.Sprintf("resnet: unknown variant %d", int(v)))
}

// String returns "R-18" / "R-34", matching the paper's labels.
func (v Variant) String() string { return fmt.Sprintf("R-%d", int(v)) }

// Config parameterizes a backbone.
type Config struct {
	// Variant is R18 or R34.
	Variant Variant
	// InChannels is the image channel count (3 for RGB).
	InChannels int
	// BaseWidth is the channel count of the first stage (64 in the
	// full-scale architecture; the repro profile uses 8).
	BaseWidth int
	// StemStride is the stride of the stem convolution (2 full-scale,
	// 1 for small repro inputs).
	StemStride int
	// StemPool adds the 3×3/2 max-pool after the stem (full-scale
	// architecture only).
	StemPool bool
}

// FullScale returns the configuration of the published architecture.
func FullScale(v Variant) Config {
	return Config{Variant: v, InChannels: 3, BaseWidth: 64, StemStride: 2, StemPool: true}
}

// Repro returns the reduced configuration used for CPU training.
func Repro(v Variant) Config {
	return Config{Variant: v, InChannels: 3, BaseWidth: 8, StemStride: 1, StemPool: false}
}

// BasicBlock is the two-convolution residual block of ResNet-18/34:
// out = ReLU(BN(conv(ReLU(BN(conv(x))))) + shortcut(x)).
type BasicBlock struct {
	name  string
	conv1 *nn.Conv2D
	bn1   *nn.BatchNorm2D
	relu1 *nn.ReLU
	conv2 *nn.Conv2D
	bn2   *nn.BatchNorm2D
	// Downsample path (1×1 conv + BN) when stride ≠ 1 or channels grow.
	dsConv *nn.Conv2D
	dsBN   *nn.BatchNorm2D

	// lastOut is the last Train/Eval/Adapt output: positive exactly
	// where the residual sum was, so it gates Backward (see nn.ReLU).
	lastOut *tensor.Tensor
	bpOut   nn.Scratch // Train/Eval/Adapt residual-add output
	dMask   nn.Scratch // backward masked-gradient staging
}

// NewBasicBlock constructs a residual block mapping inC→outC with the
// given stride on the first convolution.
func NewBasicBlock(name string, inC, outC, stride int, rng *tensor.RNG) *BasicBlock {
	g1 := tensor.ConvGeom{KH: 3, KW: 3, SH: stride, SW: stride, PH: 1, PW: 1}
	g2 := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	b := &BasicBlock{
		name:  name,
		conv1: nn.NewConv2D(name+".conv1", inC, outC, g1, false, rng),
		bn1:   nn.NewBatchNorm2D(name+".bn1", outC),
		relu1: nn.NewReLU(name + ".relu1"),
		conv2: nn.NewConv2D(name+".conv2", outC, outC, g2, false, rng),
		bn2:   nn.NewBatchNorm2D(name+".bn2", outC),
	}
	if stride != 1 || inC != outC {
		gd := tensor.ConvGeom{KH: 1, KW: 1, SH: stride, SW: stride}
		b.dsConv = nn.NewConv2D(name+".ds.conv", inC, outC, gd, false, rng)
		b.dsBN = nn.NewBatchNorm2D(name+".ds.bn", outC)
	}
	return b
}

// Name returns the block identifier.
func (b *BasicBlock) Name() string { return b.name }

// Params returns all trainable parameters of the block.
func (b *BasicBlock) Params() []*nn.Param {
	out := append([]*nn.Param{}, b.conv1.Params()...)
	out = append(out, b.bn1.Params()...)
	out = append(out, b.conv2.Params()...)
	out = append(out, b.bn2.Params()...)
	if b.dsConv != nil {
		out = append(out, b.dsConv.Params()...)
		out = append(out, b.dsBN.Params()...)
	}
	return out
}

// BatchNorms exposes the block's BN layers to the adaptation code.
func (b *BasicBlock) BatchNorms() []*nn.BatchNorm2D {
	out := []*nn.BatchNorm2D{b.bn1, b.bn2}
	if b.dsBN != nil {
		out = append(out, b.dsBN)
	}
	return out
}

// Forward computes the residual block output. Train/Eval/Adapt write
// it into block scratch, valid until the block's next such forward.
func (b *BasicBlock) Forward(x *tensor.Tensor, mode nn.Mode) *tensor.Tensor {
	main := b.conv1.Forward(x, mode)
	main = b.bn1.Forward(main, mode)
	main = b.relu1.Forward(main, mode)
	main = b.conv2.Forward(main, mode)
	main = b.bn2.Forward(main, mode)
	short := x
	if b.dsConv != nil {
		short = b.dsConv.Forward(x, mode)
		short = b.dsBN.Forward(short, mode)
	}
	if mode.IsInfer() {
		// Serving fast path: the residual add and final ReLU run in
		// place on bn2's scratch output; nothing is retained.
		b.lastOut = nil
		tensor.AddReLUClamp(main.Data, short.Data)
		return main
	}
	out := b.bpOut.For(main.Shape()...)
	tensor.AddReLUInto(out.Data, main.Data, short.Data)
	b.lastOut = out
	return out
}

// InvalidateWeightCaches drops the block's weight-derived caches (both
// branches).
func (b *BasicBlock) InvalidateWeightCaches() {
	b.conv1.InvalidateWeightCaches()
	b.conv2.InvalidateWeightCaches()
	if b.dsConv != nil {
		b.dsConv.InvalidateWeightCaches()
	}
}

// HasTrainable reports whether any of the block's layers has an
// unfrozen parameter.
func (b *BasicBlock) HasTrainable() bool {
	if b.conv1.HasTrainable() || b.bn1.HasTrainable() || b.conv2.HasTrainable() || b.bn2.HasTrainable() {
		return true
	}
	return b.dsConv != nil && (b.dsConv.HasTrainable() || b.dsBN.HasTrainable())
}

// Backward propagates through both branches and sums the input grads.
func (b *BasicBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastOut == nil {
		panic(fmt.Sprintf("resnet: %s: Backward before Forward", b.name))
	}
	d := b.dMask.For(grad.Shape()...)
	tensor.ReLUGradInto(d.Data, b.lastOut.Data, grad.Data)
	// Main branch.
	dm := b.bn2.Backward(d)
	dm = b.conv2.Backward(dm)
	dm = b.relu1.Backward(dm)
	dm = b.bn1.Backward(dm)
	dm = b.conv1.Backward(dm)
	// Shortcut branch.
	ds := d
	if b.dsConv != nil {
		ds = b.dsBN.Backward(d)
		ds = b.dsConv.Backward(ds)
	}
	return tensor.AddInPlace(dm, ds)
}

// ResNet is the backbone: stem followed by four residual stages. Its
// output is a feature map [n, 8·BaseWidth, h/k, w/k].
type ResNet struct {
	// Cfg is the construction configuration.
	Cfg Config
	net *nn.Sequential
}

// New builds a backbone per cfg with weights drawn from rng.
func New(cfg Config, rng *tensor.RNG) *ResNet {
	stem := []nn.Layer{
		nn.NewConv2D("stem.conv", cfg.InChannels, cfg.BaseWidth,
			tensor.ConvGeom{KH: 3, KW: 3, SH: cfg.StemStride, SW: cfg.StemStride, PH: 1, PW: 1}, false, rng),
		nn.NewBatchNorm2D("stem.bn", cfg.BaseWidth),
		nn.NewReLU("stem.relu"),
	}
	if cfg.StemPool {
		stem = append(stem, nn.NewMaxPool2D("stem.pool",
			tensor.ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}))
	}
	layers := stem
	blocks := cfg.Variant.Blocks()
	inC := cfg.BaseWidth
	for stage := 0; stage < 4; stage++ {
		outC := cfg.BaseWidth << stage
		for blk := 0; blk < blocks[stage]; blk++ {
			stride := 1
			if blk == 0 && stage > 0 {
				stride = 2
			}
			name := fmt.Sprintf("layer%d.block%d", stage+1, blk)
			layers = append(layers, NewBasicBlock(name, inC, outC, stride, rng))
			inC = outC
		}
	}
	return &ResNet{Cfg: cfg, net: nn.NewSequential(fmt.Sprintf("resnet%d", int(cfg.Variant)), layers...)}
}

// Name returns e.g. "resnet18".
func (r *ResNet) Name() string { return r.net.Name() }

// Forward runs the backbone.
func (r *ResNet) Forward(x *tensor.Tensor, mode nn.Mode) *tensor.Tensor {
	return r.net.Forward(x, mode)
}

// Backward propagates through the backbone, stopping (and returning
// nil) below the lowest layer with a trainable parameter — see
// nn.Sequential.Backward.
func (r *ResNet) Backward(grad *tensor.Tensor) *tensor.Tensor { return r.net.Backward(grad) }

// InvalidateWeightCaches drops every weight-derived cache in the
// backbone.
func (r *ResNet) InvalidateWeightCaches() { r.net.InvalidateWeightCaches() }

// HasTrainable reports whether any backbone parameter is unfrozen.
func (r *ResNet) HasTrainable() bool { return r.net.HasTrainable() }

// Params returns all backbone parameters.
func (r *ResNet) Params() []*nn.Param { return r.net.Params() }

// BatchNorms returns every BN layer in the backbone.
func (r *ResNet) BatchNorms() []*nn.BatchNorm2D { return r.net.BatchNorms() }

// OutChannels returns the channel count of the final feature map.
func (r *ResNet) OutChannels() int { return r.Cfg.BaseWidth * 8 }

// OutSpatial returns the feature-map size for an input of h×w.
func (r *ResNet) OutSpatial(h, w int) (oh, ow int) {
	oh, ow = h, w
	div := func(v, s int) int { return (v + s - 1) / s }
	oh, ow = div(oh, r.Cfg.StemStride), div(ow, r.Cfg.StemStride)
	if r.Cfg.StemPool {
		oh, ow = div(oh, 2), div(ow, 2)
	}
	for i := 0; i < 3; i++ { // stages 2..4 stride 2
		oh, ow = div(oh, 2), div(ow, 2)
	}
	return oh, ow
}
