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

// Conv2D is a 2-D convolution over NCHW tensors. Its float forward,
// in every float mode and at every stride, reads each sample through
// its zero-padded parity planes (tensor.ConvInto), bitwise im2col
// followed by a matrix product, and builds no lowering; InferInt8
// lowers in int8 and multiplies in int32. Neither half of the backward
// builds a column matrix: dW re-lowers the forward's input one row at
// a time (tensor.ConvDWAcc), and dX computes Wᵀ·g one column row at a
// time and scatters each row into dX at once (tensor.ConvDXInto). So a
// Backward re-reads the input its forward was given, and that input
// must stay unchanged until Backward. Bias is optional (ResNet
// convolutions are bias-free because they are followed by BatchNorm).
type Conv2D struct {
	name         string
	InC, OutC    int
	Geom         tensor.ConvGeom
	Weight       *Param // [outC, inC, kh, kw]
	Bias         *Param // [outC] or nil
	lastIn       [4]int // cached input shape [n,c,h,w]
	lastOutShape [4]int
	// fwdOK is set by a Train/Eval/Adapt forward (Backward may follow);
	// lastX is that forward's input data, a reference and not a copy,
	// which dW re-lowers.
	fwdOK bool
	lastX []float32

	// Scratch buffers and cached headers (see scratch.go for the
	// ownership contract). The infer modes and the backprop-capable
	// modes (Train, Eval, Adapt) keep separate output scratches
	// because the two usually run at different batch sizes; sharing
	// one would re-shape the header every call.
	inferOut Scratch
	bpOut    Scratch
	wmView   View               // weight matrix view [outC, K]
	giView   View               // per-sample gradient view (backward phase A)
	xView    View               // per-sample view of lastX (backward phase A)
	dwView   View               // weight-grad matrix view (backward)
	dwl      tensor.ConvDWLines // dW's lowering lines
	dxOut    Scratch            // backward input gradient

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

// convShard is one band's private scratch: the padded plane of the
// float forward, the dX backward's lines, cached sub-tensor headers
// and the int8 staging blocks.
type convShard struct {
	xi    View   // per-sample input view
	oi    View   // per-sample output view
	gi    View   // per-sample gradient view (backward phase B)
	dxi   View   // per-sample view of dxOut
	xq    []int8 // quantized input sample
	colsQ []int8 // quantized im2col lowering

	plane tensor.ConvPlane   // padded sample, offsets and row of the float forward
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
		if b.mode == InferInt8 {
			xScale := tensor.QuantizeInt8(sh.xq, b.x.Data[ni*chw:(ni+1)*chw])
			tensor.Im2ColInt8Into(sh.colsQ, sh.xq, c.InC, b.h, b.w, c.Geom)
			tensor.Int8MatMulInto(oi, c.wq, c.wScales, sh.colsQ, xScale, c.OutC, K, hw)
		} else {
			xi := sh.xi.Of(b.x.Data[ni*chw:(ni+1)*chw], 1, c.InC, b.h, b.w)
			tensor.ConvInto(oi, b.wm, xi, c.Geom, &sh.plane)
		}
		if c.Bias != nil {
			c.addBiasRows(oi, hw)
		}
	}
}

// Forward computes the convolution sample by sample, on one of two
// paths fixed by the mode alone:
//
//   - float (Infer, Train, Eval, Adapt): the sample is read from its
//     zero-padded parity planes through an offset table
//     (tensor.ConvInto), serially inside the sample, bitwise the
//     im2col lowering times the weight matrix, without the lowering.
//   - InferInt8: the sample is quantized, lowered in int8 and
//     multiplied in int32.
//
// The infer modes write one layer-owned output scratch, Train, Eval and
// Adapt another; either result is valid until the layer's next forward
// of the same class. A Train, Eval or Adapt forward keeps a reference
// to x for dW, so x must stay unchanged until Backward. Samples are
// processed in parallel bands over the worker pool when the batch is
// big enough; the int8 path's per-sample GEMMs parallelize over
// whatever workers remain.
func (c *Conv2D) Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s: input %v, want [n,%d,h,w]", c.name, x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	infer := mode.IsInfer()
	K := c.kDim()
	hw := oh * ow
	var out *tensor.Tensor
	if infer {
		out = c.inferOut.For(n, c.OutC, oh, ow)
	} else {
		out = c.bpOut.For(n, c.OutC, oh, ow)
	}
	c.fwdOK = !infer // Backward after an Infer forward must panic
	if !infer {
		c.lastX = x.Data
	}
	c.lastIn = [4]int{n, c.InC, h, w}
	c.lastOutShape = [4]int{n, c.OutC, oh, ow}
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
	*body = convFwdBody{c: c, x: x, out: out, mode: mode, h: h, w: w, oh: oh, ow: ow}
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
// serially (dW accumulates across samples in sample order — its
// per-element order is part of the bitwise contract — and
// tensor.ConvDWAcc re-lowers each sample of the forward's input, which
// must still hold what that forward read, one row at a time, banded
// over the rows), then the input gradients run sample-parallel, one
// tensor.ConvDXInto per sample. No K×oh·ow column matrix exists in
// either. A frozen Weight or Bias skips its half of the first phase
// and leaves its Grad untouched; whether the weight was frozen at the
// forward does not matter.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !c.fwdOK {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", c.name))
	}
	needW := !c.Weight.Frozen
	needB := c.Bias != nil && !c.Bias.Frozen
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
		chw := inC * h * w
		for ni := 0; ni < n; ni++ {
			gi := c.giView.Of(grad.Data[ni*c.OutC*hw:(ni+1)*c.OutC*hw], c.OutC, hw)
			if needW {
				xi := c.xView.Of(c.lastX[ni*chw:(ni+1)*chw], 1, inC, h, w)
				tensor.ConvDWAcc(dW, gi, xi, c.Geom, &c.dwl) // dW += gi · cols(xi)ᵀ
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
