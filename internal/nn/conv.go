package nn

import (
	"fmt"

	"ldbnadapt/internal/par"
	"ldbnadapt/internal/tensor"
)

// batchParMin gates batch-level (per-sample) parallelism in the conv
// layer, in per-batch multiply-accumulate counts, matching the tensor
// kernels' gate unit. Below it the sample loop runs on the caller and
// only the inner kernels parallelize. A var so the cross-layer
// bitwise suite can force sample banding on small shapes.
var batchParMin = 1 << 16

// Conv2D is a 2-D convolution over NCHW tensors. A forward whose
// lowering nobody keeps (the float Infer mode, and Adapt/Eval/Train
// with the weight frozen) reads a stride-1 geometry straight from a
// zero-padded copy of each sample (tensor.ConvS1Into); every other
// forward — stride 2, InferInt8, a trainable weight, whose lowering
// feeds dW and lives in the layer's one column slab in every non-infer
// mode — goes through im2col and a matrix product. The two are
// bitwise equal. The dX backward builds no column matrix: it computes
// Wᵀ·g one column row at a time and scatters each row into dX at once
// (tensor.ConvDXInto). Bias is optional (ResNet convolutions are
// bias-free because they are followed by BatchNorm).
type Conv2D struct {
	name         string
	InC, OutC    int
	Geom         tensor.ConvGeom
	Weight       *Param // [outC, inC, kh, kw]
	Bias         *Param // [outC] or nil
	lastIn       [4]int // cached input shape [n,c,h,w]
	lastOutShape [4]int
	// fwdOK is set by a Train/Eval/Adapt forward (Backward may follow);
	// lastCols holds its per-sample lowerings, nil when Weight was
	// frozen at that forward.
	fwdOK    bool
	lastCols []*tensor.Tensor

	// Scratch buffers and cached headers (see scratch.go for the
	// ownership contract). The infer modes and the backprop-capable
	// modes (Train, Eval, Adapt) keep separate output scratches
	// because the two usually run at different batch sizes; sharing
	// one would re-shape the header every call.
	inferOut Scratch
	bpOut    Scratch
	bpCols   []float32 // one [n, K, hw] slab backing lastCols
	colViews []View    // per-sample [K, hw] headers over bpCols
	wmView   View      // weight matrix view [outC, K]
	giView   View      // per-sample gradient view (backward phase A)
	dwView   View      // weight-grad matrix view (backward)
	dxOut    Scratch   // backward input gradient

	// shards are the per-band scratch blocks for sample-parallel
	// forwards/backwards: band b of a par.For over the batch owns
	// shards[b] exclusively for the duration of the call (see
	// internal/par's ownership contract). Grown to par.Width(n, 1) at
	// the top of Forward/Backward, so steady-state calls at a stable
	// batch size and GOMAXPROCS allocate nothing.
	shards  []convShard
	fwdBody convFwdBody
	bwdBody convBwdBody

	// Weight-derived caches, built lazily on first use and owned by
	// this layer instance (replicas share Weight.Value, never these):
	// the per-output-channel symmetric int8 table for InferInt8, and
	// the transposed weight matrix [K, outC] Backward multiplies by
	// (cached only while the weight is frozen). Serving freezes conv
	// weights, so both stay valid; callers that mutate Weight.Value
	// must call InvalidateWeightCaches.
	wq      []int8
	wScales []float32
	wqOK    bool
	wt      []float32
	wtView  View
	wtOK    bool
}

// convShard is one band's private scratch: the lowering buffer, the
// padded plane of the stride-1 path, the backward's lines, cached
// sub-tensor headers and the int8 staging blocks.
type convShard struct {
	cols  Scratch // im2col lowering nobody retains (stride 2, frozen weight)
	xi    View    // per-sample input view
	oi    View    // per-sample output view
	gi    View    // per-sample gradient view (backward phase B)
	dxi   View    // per-sample view of dxOut
	xq    []int8  // quantized input sample
	colsQ []int8  // quantized im2col lowering

	plane tensor.ConvPlane   // padded sample, offsets and row of the stride-1 path
	dxl   tensor.ConvDXLines // the dX backward's column-row lines
}

// ensureShards grows the shard slice to bands entries (never shrinks,
// so headers and buffers persist across batch-size changes).
func (c *Conv2D) ensureShards(bands int) {
	if len(c.shards) < bands {
		ns := make([]convShard, bands)
		copy(ns, c.shards)
		c.shards = ns
	}
}

// NewConv2D constructs a convolution layer with Kaiming-initialized
// weights drawn from rng.
func NewConv2D(name string, inC, outC int, g tensor.ConvGeom, withBias bool, rng *tensor.RNG) *Conv2D {
	w := tensor.New(outC, inC, g.KH, g.KW)
	rng.KaimingConv(w)
	c := &Conv2D{
		name:   name,
		InC:    inC,
		OutC:   outC,
		Geom:   g,
		Weight: NewParam(name+".weight", w),
	}
	if withBias {
		c.Bias = NewParam(name+".bias", tensor.New(outC))
	}
	return c
}

// Name returns the layer identifier.
func (c *Conv2D) Name() string { return c.name }

// Params returns weight (and bias when present).
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// HasTrainable reports whether the weight or the bias is unfrozen.
func (c *Conv2D) HasTrainable() bool {
	return !c.Weight.Frozen || (c.Bias != nil && !c.Bias.Frozen)
}

// kDim is the lowered weight-matrix inner dimension inC·kh·kw.
func (c *Conv2D) kDim() int { return c.InC * c.Geom.KH * c.Geom.KW }

// addBiasRows adds the per-channel bias to an [outC, hw] output block.
func (c *Conv2D) addBiasRows(oi *tensor.Tensor, hw int) {
	for oc := 0; oc < c.OutC; oc++ {
		b := c.Bias.Value.Data[oc]
		row := oi.Data[oc*hw : (oc+1)*hw]
		for i := range row {
			row[i] += b
		}
	}
}

// convFwdBody is the sample-parallel forward loop: band b processes
// samples [lo,hi) with shards[b]'s private scratch. Each sample's
// lowering and product are the serial kernels over that sample's
// data, so the batched output is bitwise the sequential one at any
// band count.
type convFwdBody struct {
	c            *Conv2D
	x, out       *tensor.Tensor
	wm           *tensor.Tensor
	mode         Mode
	retain       bool // keep each sample's lowering for dW
	s1           bool // read the padded plane instead of lowering
	h, w, oh, ow int
}

func (b *convFwdBody) Chunk(band, lo, hi int) {
	c := b.c
	K := c.kDim()
	hw := b.oh * b.ow
	chw := c.InC * b.h * b.w
	sh := &c.shards[band]
	for ni := lo; ni < hi; ni++ {
		oi := sh.oi.Of(b.out.Data[ni*c.OutC*hw:(ni+1)*c.OutC*hw], c.OutC, hw)
		switch {
		case b.mode == InferInt8:
			xScale := tensor.QuantizeInt8(sh.xq, b.x.Data[ni*chw:(ni+1)*chw])
			tensor.Im2ColInt8Into(sh.colsQ, sh.xq, c.InC, b.h, b.w, c.Geom)
			tensor.Int8MatMulInto(oi, c.wq, c.wScales, sh.colsQ, xScale, c.OutC, K, hw)
		case b.s1:
			xi := sh.xi.Of(b.x.Data[ni*chw:(ni+1)*chw], 1, c.InC, b.h, b.w)
			tensor.ConvS1Into(oi, b.wm, xi, c.Geom, &sh.plane)
		default:
			xi := sh.xi.Of(b.x.Data[ni*chw:(ni+1)*chw], 1, c.InC, b.h, b.w)
			var cols *tensor.Tensor
			if b.retain {
				cols = c.colViews[ni].Of(c.bpCols[ni*K*hw:(ni+1)*K*hw], K, hw)
				c.lastCols[ni] = cols
			} else {
				cols = sh.cols.For(K, hw)
			}
			tensor.Im2ColInto(cols, xi, c.Geom)
			tensor.MatMulInto(oi, b.wm, cols)
		}
		if c.Bias != nil {
			c.addBiasRows(oi, hw)
		}
	}
}

// Forward computes the convolution sample by sample, on one of two
// paths fixed by the mode, the weight and the geometry:
//
//   - im2col: the sample is lowered to a [inC*kh*kw, oh*ow] matrix and
//     the product W[outC, inC*kh*kw]·cols lands directly in the output
//     layout. A trainable weight's forward takes it in Train, Eval and
//     Adapt and keeps the lowering in the layer's column slab as dW's
//     backward cache; InferInt8 lowers in int8; any other stride-2
//     forward lowers into the per-band scratch.
//   - padded plane: a stride-1 forward whose lowering nobody keeps —
//     Infer, and Train/Eval/Adapt with the weight frozen — reads the
//     sample from a zero-padded copy through an offset table
//     (tensor.ConvS1Into) and builds no lowering at all. It runs
//     serially inside the sample and is bitwise the im2col result.
//
// The infer modes write one layer-owned output scratch, Train, Eval and
// Adapt another; either result is valid until the layer's next forward
// of the same class. Samples are processed in parallel bands over
// the worker pool when the batch is big enough; the nested per-sample
// GEMMs of the im2col path parallelize over whatever workers remain.
func (c *Conv2D) Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s: input %v, want [n,%d,h,w]", c.name, x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	infer := mode.IsInfer()
	retain := !infer && !c.Weight.Frozen
	K := c.kDim()
	hw := oh * ow
	var out *tensor.Tensor
	if infer {
		out = c.inferOut.For(n, c.OutC, oh, ow)
	} else {
		out = c.bpOut.For(n, c.OutC, oh, ow)
	}
	c.fwdOK = !infer // Backward after an Infer forward must panic
	c.lastIn = [4]int{n, c.InC, h, w}
	c.lastOutShape = [4]int{n, c.OutC, oh, ow}
	if retain {
		c.bpCols = growF32(c.bpCols, n*K*hw)
		if cap(c.colViews) < n {
			c.colViews = make([]View, n)
		}
		c.colViews = c.colViews[:n]
		if cap(c.lastCols) < n {
			c.lastCols = make([]*tensor.Tensor, n)
		}
		c.lastCols = c.lastCols[:n]
	} else {
		c.lastCols = nil
	}
	bands := par.Width(n, 1)
	c.ensureShards(bands)
	if mode == InferInt8 {
		c.ensureInt8()
		for b := 0; b < bands; b++ {
			c.shards[b].xq = growI8(c.shards[b].xq, c.InC*h*w)
			c.shards[b].colsQ = growI8(c.shards[b].colsQ, K*hw)
		}
	}
	body := &c.fwdBody
	*body = convFwdBody{c: c, x: x, out: out, mode: mode, retain: retain, h: h, w: w, oh: oh, ow: ow,
		s1: !retain && mode != InferInt8 && c.Geom.SH == 1 && c.Geom.SW == 1}
	if mode != InferInt8 {
		body.wm = c.wmView.Of(c.Weight.Value.Data, c.OutC, K)
	}
	if n >= 2 && n*c.OutC*K*hw >= batchParMin {
		par.For(n, 1, body)
	} else {
		body.Chunk(0, 0, n)
	}
	body.x, body.out, body.wm = nil, nil, nil
	return out
}

// ensureInt8 builds the per-output-channel int8 weight cache.
func (c *Conv2D) ensureInt8() {
	if c.wqOK {
		return
	}
	K := c.kDim()
	c.wq = growI8(c.wq, c.OutC*K)
	c.wScales = growF32(c.wScales, c.OutC)
	tensor.QuantizeInt8PerRow(c.wq, c.wScales, c.Weight.Value.Data, c.OutC, K)
	c.wqOK = true
}

// weightT returns the weight matrix transposed, [K, outC], in the
// layer's wt buffer. A frozen weight's transpose is built once and
// cached until InvalidateWeightCaches; a trainable one is about to be
// stepped, so it is rebuilt on every call and never cached.
func (c *Conv2D) weightT() *tensor.Tensor {
	K := c.kDim()
	if !c.wtOK || !c.Weight.Frozen {
		c.wt = growF32(c.wt, K*c.OutC)
		w := c.Weight.Value.Data
		for oc := 0; oc < c.OutC; oc++ {
			for k, v := range w[oc*K : (oc+1)*K] {
				c.wt[k*c.OutC+oc] = v
			}
		}
		c.wtOK = c.Weight.Frozen
	}
	return c.wtView.Of(c.wt, K, c.OutC)
}

// InvalidateWeightCaches drops the cached int8 and transposed weights
// so the next InferInt8 forward re-quantizes, and the next frozen
// Backward re-transposes, Weight.Value. Call after mutating the
// weights.
func (c *Conv2D) InvalidateWeightCaches() { c.wqOK, c.wtOK = false, false }

// convBwdBody is the sample-parallel half of Backward: the input
// gradient. Each band owns its samples' lines and dx views, and the
// per-sample kernel (tensor.ConvDXInto over the transposed weight) is
// bitwise col2im(Wᵀ·gi) at any band count. A trainable and a frozen
// weight take the same kernel; the trainable one only re-transposes
// first. The kernel's rows are MatMulInto's gemmRow calls, which apply
// the same updates in the same increasing-p order with the same
// zero-skip as MatMulTAInto over the untransposed weight.
type convBwdBody struct {
	c         *Conv2D
	grad, dx  *tensor.Tensor
	wt        *tensor.Tensor
	inC, h, w int
	hw        int
}

func (b *convBwdBody) Chunk(band, lo, hi int) {
	c := b.c
	sh := &c.shards[band]
	for ni := lo; ni < hi; ni++ {
		gi := sh.gi.Of(b.grad.Data[ni*c.OutC*b.hw:(ni+1)*c.OutC*b.hw], c.OutC, b.hw)
		dxi := sh.dxi.Of(b.dx.Data[ni*b.inC*b.h*b.w:(ni+1)*b.inC*b.h*b.w], 1, b.inC, b.h, b.w)
		tensor.ConvDXInto(dxi, b.wt, gi, c.Geom, &sh.dxl)
	}
}

// Backward accumulates dW (and db) and returns dX. The returned
// gradient lives in layer-owned scratch, valid until the next
// Backward. Two phases: the weight/bias gradients walk the batch
// serially (dW accumulates across samples — its per-element order is
// part of the bitwise contract — while the GEMM inside row-bands over
// output channels), then the input gradients run sample-parallel, one
// tensor.ConvDXInto per sample and no K×oh·ow column matrix. A frozen
// Weight or Bias skips its half of the first phase and leaves its
// Grad untouched.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !c.fwdOK {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", c.name))
	}
	needW := !c.Weight.Frozen
	needB := c.Bias != nil && !c.Bias.Frozen
	if needW && c.lastCols == nil {
		panic(fmt.Sprintf("nn: %s: weight unfrozen between Forward and Backward: the frozen forward kept no lowering for dW", c.name))
	}
	n, inC, h, w := c.lastIn[0], c.lastIn[1], c.lastIn[2], c.lastIn[3]
	oh, ow := c.lastOutShape[2], c.lastOutShape[3]
	hw := oh * ow
	if grad.Size() != n*c.OutC*hw {
		panic(fmt.Sprintf("nn: %s: grad %v, want %v", c.name, grad.Shape(), c.lastOutShape))
	}
	K := c.kDim()
	dx := c.dxOut.For(n, inC, h, w)
	if needW || needB {
		dW := c.dwView.Of(c.Weight.Grad.Data, c.OutC, K)
		for ni := 0; ni < n; ni++ {
			gi := c.giView.Of(grad.Data[ni*c.OutC*hw:(ni+1)*c.OutC*hw], c.OutC, hw)
			if needW {
				// dW += gi · colsᵀ
				tensor.MatMulTBAcc(dW, gi, c.lastCols[ni])
			}
			if needB {
				for oc := 0; oc < c.OutC; oc++ {
					s := float32(0)
					for _, v := range gi.Data[oc*hw : (oc+1)*hw] {
						s += v
					}
					c.Bias.Grad.Data[oc] += s
				}
			}
		}
	}
	bands := par.Width(n, 1)
	c.ensureShards(bands)
	body := &c.bwdBody
	*body = convBwdBody{c: c, grad: grad, dx: dx, wt: c.weightT(), inC: inC, h: h, w: w, hw: hw}
	if n >= 2 && n*c.OutC*K*hw >= batchParMin {
		par.For(n, 1, body)
	} else {
		body.Chunk(0, 0, n)
	}
	body.grad, body.dx, body.wt = nil, nil, nil
	return dx
}

// FLOPs returns the multiply-accumulate count for one forward pass on
// an input of spatial size h×w (used by the Orin performance model).
func (c *Conv2D) FLOPs(h, w int) int64 {
	oh, ow := c.Geom.OutSize(h, w)
	macs := int64(c.OutC) * int64(oh) * int64(ow) * int64(c.InC) * int64(c.Geom.KH) * int64(c.Geom.KW)
	return 2 * macs
}
