package nn

import (
	"fmt"

	"ldbnadapt/internal/tensor"
)

// Linear is a fully-connected layer y = x·Wᵀ + b over [n, in] inputs.
//
// Unlike Conv2D/BatchNorm2D, Linear needs no sample banding of its
// own: its forward is a single MatMulTBInto (Int8MatMulTBInto on the
// int8 rung) and its backward a MatMulTAInto + MatMulInto, all of
// which parallelize internally on the shared worker pool — the TB
// kernels band output features when the batch has fewer rows than
// workers, so even a one-frame forward spreads across cores. The
// remaining per-sample loops here (bias add, activation quantize) are
// O(n·out) byte-movers far below any dispatch break-even.
type Linear struct {
	name    string
	In, Out int
	Weight  *Param // [out, in]
	Bias    *Param // [out]
	lastX   *tensor.Tensor

	// Scratch (see scratch.go): separate output buffers for the infer
	// modes and for Train/Eval/Adapt, because the two classes run at
	// different batch sizes.
	inferOut Scratch
	bpOut    Scratch
	dwTmp    Scratch // backward weight-grad staging
	dxOut    Scratch // backward input gradient

	// Int8 weight cache for InferInt8 (per-output-feature scales),
	// built lazily; see Conv2D for the invalidation contract. (No
	// transposed-weight cache here: dX = dY·W already runs through
	// MatMulInto.)
	wq      []int8
	wScales []float32
	wqOK    bool
	xq      []int8
	xScales []float32
}

// NewLinear constructs a Kaiming-initialized fully-connected layer.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	w := tensor.New(out, in)
	rng.KaimingLinear(w)
	return &Linear{
		name:   name,
		In:     in,
		Out:    out,
		Weight: NewParam(name+".weight", w),
		Bias:   NewParam(name+".bias", tensor.New(out)),
	}
}

// Name returns the layer identifier.
func (l *Linear) Name() string { return l.name }

// Params returns weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// HasTrainable reports whether the weight or the bias is unfrozen.
func (l *Linear) HasTrainable() bool { return !l.Weight.Frozen || !l.Bias.Frozen }

// Forward computes x·Wᵀ + b into layer-owned scratch: one output buffer
// for the infer modes (no backward cache), another for Train, Eval and
// Adapt, each valid until the layer's next forward of the same class.
func (l *Linear) Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor {
	if x.NDim() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s: input %v, want [n,%d]", l.name, x.Shape(), l.In))
	}
	n := x.Dim(0)
	var out *tensor.Tensor
	if mode.IsInfer() {
		l.lastX = nil // Backward after an Infer forward must panic
		out = l.inferOut.For(n, l.Out)
	} else {
		l.lastX = x
		out = l.bpOut.For(n, l.Out)
	}
	if mode == InferInt8 {
		l.ensureInt8()
		l.xq = growI8(l.xq, n*l.In)
		l.xScales = growF32(l.xScales, n)
		for i := 0; i < n; i++ {
			l.xScales[i] = tensor.QuantizeInt8(l.xq[i*l.In:(i+1)*l.In], x.Data[i*l.In:(i+1)*l.In])
		}
		tensor.Int8MatMulTBInto(out, l.xq, l.xScales, l.wq, l.wScales, n, l.In, l.Out)
	} else {
		tensor.MatMulTBInto(out, x, l.Weight.Value)
	}
	for i := 0; i < n; i++ {
		row := out.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += l.Bias.Value.Data[j]
		}
	}
	return out
}

// ensureInt8 builds the per-output-feature int8 weight cache.
func (l *Linear) ensureInt8() {
	if l.wqOK {
		return
	}
	l.wq = growI8(l.wq, l.Out*l.In)
	l.wScales = growF32(l.wScales, l.Out)
	tensor.QuantizeInt8PerRow(l.wq, l.wScales, l.Weight.Value.Data, l.Out, l.In)
	l.wqOK = true
}

// InvalidateWeightCaches drops the cached int8 weights so the next
// InferInt8 forward re-quantizes Weight.Value. Call after mutating the
// weights.
func (l *Linear) InvalidateWeightCaches() { l.wqOK = false }

// Backward accumulates dW = dYᵀ·X and db = Σ dY, returning dX = dY·W
// in layer-owned scratch (valid until the next Backward). A frozen
// Weight or Bias skips its gradient and leaves its Grad untouched.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", l.name))
	}
	n := l.lastX.Dim(0)
	if grad.NDim() != 2 || grad.Dim(0) != n || grad.Dim(1) != l.Out {
		panic(fmt.Sprintf("nn: %s: grad %v, want [%d,%d]", l.name, grad.Shape(), n, l.Out))
	}
	if !l.Weight.Frozen {
		dw := l.dwTmp.For(l.Out, l.In)
		tensor.MatMulTAInto(dw, grad, l.lastX)
		tensor.AddInPlace(l.Weight.Grad, dw)
	}
	if !l.Bias.Frozen {
		for i := 0; i < n; i++ {
			row := grad.Data[i*l.Out : (i+1)*l.Out]
			for j, v := range row {
				l.Bias.Grad.Data[j] += v
			}
		}
	}
	dx := l.dxOut.For(n, l.In)
	tensor.MatMulInto(dx, grad, l.Weight.Value)
	return dx
}
