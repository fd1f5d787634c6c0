package nn

import (
	"fmt"

	"ldbnadapt/internal/tensor"
)

// Linear is a fully-connected layer y = x·Wᵀ + b over [n, in] inputs.
//
// Linear bands nothing itself: its float forward is a single
// MatMulTBInto and its backward a MatMulTAInto + MatMulInto, all of
// which parallelize internally on the shared worker pool — the TB
// kernel bands output features when the batch has fewer rows than
// workers, so even a one-frame forward spreads across cores. On the
// int8 rung each sample is quantized with its own scale and multiplied
// as an [in, 1] column by Int8MatMulInto, which bands output features.
// The remaining per-sample loops here (bias add, activation quantize)
// are O(n·out) byte-movers far below any dispatch break-even.
type Linear struct {
	name    string
	In, Out int
	Weight  *Param // [out, in]
	Bias    *Param // [out]
	lastX   *tensor.Tensor

	// Scratch (see scratch.go): separate output buffers for the infer
	// modes and for Train/Eval/Adapt, because the two classes run at
	// different batch sizes. In a planned model the infer one and dX
	// are arena slots (see Arena); the Train/Eval/Adapt one stays the
	// layer's own, because the next Linear retains it for dW or it is
	// the model's logits.
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
	xq      []int8 // InferInt8's quantized input sample
	outView View   // one sample's output row as an [out, 1] column
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

// Replica returns a linear layer of l's configuration for another
// goroutine, sharing l's weight and bias tensors (see Conv2D.Replica).
func (l *Linear) Replica() *Linear {
	return &Linear{name: l.name, In: l.In, Out: l.Out, Weight: l.Weight.share(), Bias: l.Bias.share()}
}

// Name returns the layer identifier.
func (l *Linear) Name() string { return l.name }

// Params returns weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// HasTrainable reports whether the weight or the bias is unfrozen.
func (l *Linear) HasTrainable() bool { return !l.Weight.Frozen || !l.Bias.Frozen }

// Forward computes x·Wᵀ + b into scratch: one output buffer for the
// infer modes (no backward cache; an arena slot in a planned model),
// another for Train, Eval and Adapt, each valid until the layer's next
// forward of the same class (a planned infer result, until the model's
// next infer forward).
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
		l.xq = growI8(l.xq, l.In)
		for i := 0; i < n; i++ {
			xScale := tensor.QuantizeInt8(l.xq, x.Data[i*l.In:(i+1)*l.In])
			oi := l.outView.Of(out.Data[i*l.Out:(i+1)*l.Out], l.Out, 1)
			tensor.Int8MatMulInto(oi, l.wq, l.wScales, l.xq, xScale, l.Out, l.In, 1)
		}
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
// in layer scratch, valid until the next Backward (in a planned model,
// an arena slot: until the model's next Train/Eval/Adapt forward or
// Backward). A frozen
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
		tensor.AddInPlace(l.Weight.EnsureGrad(), dw)
	}
	if !l.Bias.Frozen {
		db := l.Bias.EnsureGrad().Data
		for i := 0; i < n; i++ {
			row := grad.Data[i*l.Out : (i+1)*l.Out]
			for j, v := range row {
				db[j] += v
			}
		}
	}
	dx := l.dxOut.For(n, l.In)
	tensor.MatMulInto(dx, grad, l.Weight.Value)
	return dx
}
