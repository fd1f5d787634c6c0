package nn

import (
	"fmt"

	"ldbnadapt/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors. Its forward, in every
// mode and at every stride, reads each sample through its zero-padded
// parity planes and builds no lowering: float32 planes in the float
// modes (tensor.ConvInto, bitwise im2col followed by a matrix product),
// int8 planes of the quantized sample multiplied in int32 in InferInt8
// (tensor.ConvInt8Into), both through one ConvPlane. Neither half of the backward
// builds a column matrix: dW re-lowers the forward's input four rows
// at a time (tensor.ConvDWAcc), and dX computes Wᵀ·g one column row at a
// time from the untransposed weight and scatters each row into dX at
// once (tensor.ConvDXInto), so no transposed weight is kept. A Backward
// re-reads the input its forward was given, and that input must stay
// unchanged until Backward. Forward and Backward walk the
// batch in sample order on the caller; the parallelism is inside the
// per-sample kernels, each banded over what it writes (output channels
// in ConvInto, input channels in ConvDXInto, lowering rows in
// ConvDWAcc). Bias is optional (ResNet convolutions are bias-free
// because they are followed by BatchNorm).
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
	fwdOK    bool
	lastX    []float32
	retained retained // a copy of lastX to check at Backward, under the retaincheck tag

	// noDX marks a conv whose input gradient nobody reads (a
	// backbone's stem, whose input is the image): Backward computes
	// none and returns nil.
	noDX bool

	// Scratch buffers and cached headers (see scratch.go for the
	// ownership contract). The infer modes and the backprop-capable
	// modes (Train, Eval, Adapt) keep separate output scratches
	// because the two usually run at different batch sizes; sharing
	// one would re-shape the header every call. In a planned model
	// all three are arena slots (see Arena).
	inferOut Scratch
	bpOut    Scratch
	dxOut    Scratch // backward input gradient
	wmView   View    // weight matrix view [outC, K]
	dwView   View    // weight-grad matrix view (backward)
	inView   View    // one sample of the input or of dX, [1, inC, h, w]
	outView  View    // one sample of the output or of its gradient, [outC, oh·ow]
	xq       []int8  // InferInt8's quantized input sample
	// Per-call kernel scratch, rewritten by every call: the layer's
	// own, made on first use, or in a planned model the model's, shared
	// by its convs.
	plane *tensor.ConvPlane   // the forward's padded sample, in either precision
	dxl   *tensor.ConvDXLines // dX's column-row lines
	dwl   *tensor.ConvDWLines // dW's lowering lines

	// The int8 weight cache, built lazily on the first InferInt8 forward
	// and owned by this layer instance (replicas share Weight.Value,
	// never this): the per-output-channel symmetric int8 table. Serving
	// freezes conv weights, so it stays valid; callers that mutate
	// Weight.Value must call InvalidateWeightCaches.
	wq      []int8
	wScales []float32
	wqOK    bool
}

// NewConv2D constructs a convolution layer with Kaiming-initialized
// weights drawn from rng.
func NewConv2D(name string, inC, outC int, g tensor.ConvGeom, withBias bool, rng *tensor.RNG) *Conv2D {
	w := tensor.New(outC, inC, g.KH, g.KW)
	rng.KaimingConv(w)
	c := &Conv2D{name: name, InC: inC, OutC: outC, Geom: g, Weight: NewParam(name+".weight", w)}
	if withBias {
		c.Bias = NewParam(name+".bias", tensor.New(outC))
	}
	return c
}

// Replica returns a conv of c's configuration for another goroutine:
// its Params are its own, with no Grad, but their Values are c's
// weight and bias tensors, and its scratch and int8 cache start empty.
// Nothing may write the shared tensors while either layer runs.
func (c *Conv2D) Replica() *Conv2D {
	r := &Conv2D{name: c.name, InC: c.InC, OutC: c.OutC, Geom: c.Geom, Weight: c.Weight.share(), noDX: c.noDX}
	if c.Bias != nil {
		r.Bias = c.Bias.share()
	}
	return r
}

// SkipInputGrad makes Backward compute no input gradient and return
// nil: for a conv whose input is data nobody differentiates, such as a
// backbone's stem reading the image.
func (c *Conv2D) SkipInputGrad() { c.noDX = true }

// share points c's per-call kernel scratch at the backprop arena's:
// the plane of the convs with c's input channels and geometry, and the
// one dX and dW line set of the model.
func (c *Conv2D) share(a *Arena) {
	if a.planes == nil {
		a.planes = map[planeKey]*tensor.ConvPlane{}
	}
	k := planeKey{c.InC, c.Geom}
	if a.planes[k] == nil {
		a.planes[k] = new(tensor.ConvPlane)
	}
	c.plane, c.dxl, c.dwl = a.planes[k], &a.dxl, &a.dwl
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

// Forward computes the convolution sample by sample, in the precision
// fixed by the mode alone:
//
//   - float (Infer, Train, Eval, Adapt): the sample is read from its
//     zero-padded parity planes through an offset table
//     (tensor.ConvInto), bitwise the im2col lowering times the weight
//     matrix, without the lowering.
//   - InferInt8: the sample is quantized with one scale and read from
//     int8 parity planes through the same table (tensor.ConvInt8Into),
//     accumulating exactly in int32.
//
// Either way the output channels are banded over the worker pool.
//
// The infer modes write one output scratch, Train, Eval and Adapt
// another; either result is valid until the layer's next forward of
// the same class. In a planned model both are arena slots: an infer
// result is valid until the model's next infer forward, a Train, Eval
// or Adapt one until its next forward of that class or Backward (see
// Arena). A Train, Eval or Adapt forward keeps a reference to x for
// dW, so x must stay unchanged until Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s: input %v, want [n,%d,h,w]", c.name, x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	infer := mode.IsInfer()
	K := c.kDim()
	hw := oh * ow
	chw := c.InC * h * w
	var out *tensor.Tensor
	if infer {
		out = c.inferOut.For(n, c.OutC, oh, ow)
	} else {
		out = c.bpOut.For(n, c.OutC, oh, ow)
	}
	c.fwdOK = !infer // Backward after an Infer forward must panic
	if !infer {
		c.lastX = x.Data
		c.retained.keep(x.Data)
	}
	c.lastIn = [4]int{n, c.InC, h, w}
	c.lastOutShape = [4]int{n, c.OutC, oh, ow}
	if c.plane == nil {
		c.plane = new(tensor.ConvPlane)
	}
	var wm *tensor.Tensor
	if mode == InferInt8 {
		c.ensureInt8()
		c.xq = growI8(c.xq, chw)
	} else {
		wm = c.wmView.Of(c.Weight.Value.Data, c.OutC, K)
	}
	for ni := 0; ni < n; ni++ {
		oi := c.outView.Of(out.Data[ni*c.OutC*hw:(ni+1)*c.OutC*hw], c.OutC, hw)
		if mode == InferInt8 {
			xScale := tensor.QuantizeInt8(c.xq, x.Data[ni*chw:(ni+1)*chw])
			tensor.ConvInt8Into(oi, c.wq, c.wScales, c.xq, xScale, c.InC, h, w, c.Geom, c.plane)
		} else {
			xi := c.inView.Of(x.Data[ni*chw:(ni+1)*chw], 1, c.InC, h, w)
			tensor.ConvInto(oi, wm, xi, c.Geom, c.plane)
		}
		if c.Bias != nil {
			c.addBiasRows(oi, hw)
		}
	}
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

// InvalidateWeightCaches drops the cached int8 weights so the next
// InferInt8 forward re-quantizes Weight.Value. Call after mutating the
// weights. (Backward reads Weight.Value itself and caches nothing.)
func (c *Conv2D) InvalidateWeightCaches() { c.wqOK = false }

// Backward accumulates dW (and db) and returns dX, or nil after
// SkipInputGrad. The returned gradient lives in layer scratch, valid
// until the layer's next Backward (in a planned model, an arena slot,
// until the model's next Train/Eval/Adapt forward or Backward). It
// walks the batch in sample order: dW accumulates across samples in
// that order (its per-element order is part of the bitwise contract),
// tensor.ConvDWAcc re-lowering each sample of the forward's input,
// which must still hold what that forward read, four rows at a time;
// each sample's dX is one tensor.ConvDXInto over the weight matrix,
// which gathers each weight column as it goes. No K×oh·ow column
// matrix and no transposed weight exists in either. A trainable and a
// frozen weight take the same dX kernel. The kernel's rows are
// MatMulInto's gemmRow calls, which apply the same updates in the same
// increasing-p order with the same zero-skip as MatMulTAInto over the
// untransposed weight. A frozen Weight or Bias skips its gradient and
// leaves its Grad untouched; whether the weight was frozen at the
// forward does not matter.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !c.fwdOK {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", c.name))
	}
	c.retained.check(c.name, c.lastX)
	needW := !c.Weight.Frozen
	needB := c.Bias != nil && !c.Bias.Frozen
	n, inC, h, w := c.lastIn[0], c.lastIn[1], c.lastIn[2], c.lastIn[3]
	oh, ow := c.lastOutShape[2], c.lastOutShape[3]
	hw := oh * ow
	if grad.Size() != n*c.OutC*hw {
		panic(fmt.Sprintf("nn: %s: grad %v, want %v", c.name, grad.Shape(), c.lastOutShape))
	}
	chw := inC * h * w
	var dx *tensor.Tensor
	if !c.noDX {
		dx = c.dxOut.For(n, inC, h, w)
	}
	if c.dxl == nil {
		c.dxl, c.dwl = new(tensor.ConvDXLines), new(tensor.ConvDWLines)
	}
	wm := c.wmView.Of(c.Weight.Value.Data, c.OutC, c.kDim())
	var dW *tensor.Tensor
	if needW {
		dW = c.dwView.Of(c.Weight.EnsureGrad().Data, c.OutC, c.kDim())
	}
	var db []float32
	if needB {
		db = c.Bias.EnsureGrad().Data
	}
	for ni := 0; ni < n; ni++ {
		gi := c.outView.Of(grad.Data[ni*c.OutC*hw:(ni+1)*c.OutC*hw], c.OutC, hw)
		if needW {
			xi := c.inView.Of(c.lastX[ni*chw:(ni+1)*chw], 1, inC, h, w)
			tensor.ConvDWAcc(dW, gi, xi, c.Geom, c.dwl) // dW += gi · cols(xi)ᵀ
		}
		if needB {
			for oc := 0; oc < c.OutC; oc++ {
				s := float32(0)
				for _, v := range gi.Data[oc*hw : (oc+1)*hw] {
					s += v
				}
				db[oc] += s
			}
		}
		if dx != nil {
			dxi := c.inView.Of(dx.Data[ni*chw:(ni+1)*chw], 1, inC, h, w)
			tensor.ConvDXInto(dxi, wm, gi, c.Geom, c.dxl)
		}
	}
	return dx
}
