// Package nn implements the neural-network substrate used by the UFLD
// lane detector and the adaptation algorithms: layers with explicit
// reverse-mode gradients (Conv2D, BatchNorm2D, Linear, ReLU, pooling),
// losses (group cross-entropy, Shannon prediction entropy, UFLD
// structural losses) and optimizers (SGD with momentum, Adam).
//
// Layers follow a simple contract: Forward caches whatever the matching
// Backward needs; Backward consumes the gradient w.r.t. the layer
// output and returns the gradient w.r.t. the layer input while
// accumulating parameter gradients into Param.Grad. A forward Mode
// selects between training, inference and the BN-adaptation behaviour
// at the centre of LD-BN-ADAPT.
package nn

import (
	"fmt"

	"ldbnadapt/internal/tensor"
)

// Mode selects the forward-pass behaviour of mode-dependent layers
// (currently only BatchNorm2D distinguishes the three).
type Mode int

const (
	// Train normalizes by batch statistics and updates running stats.
	Train Mode = iota
	// Eval normalizes by the stored running statistics.
	Eval
	// Adapt is the LD-BN-ADAPT mode: normalize by the *current batch*
	// statistics computed from unlabeled target data (the paper's step
	// (i): "normalization ... recomputed from the unlabeled data") and
	// refresh the running statistics so subsequent Eval passes see the
	// target domain.
	Adapt
	// Infer is the serving fast path: numerically identical to Eval but
	// layers skip every backward cache and write their outputs into the
	// infer scratch, layer-owned buffers kept apart from the one scratch
	// Train, Eval and Adapt share. A tensor returned by an Infer forward
	// is only valid until the layer's next Infer forward (one returned
	// by a Train/Eval/Adapt forward until the layer's next forward in
	// one of those modes), and Backward after an Infer forward panics. BatchNorm2D additionally honours
	// per-sample statistics sources in this mode (multi-stream batched
	// serving, see SetSampleSources).
	Infer
	// InferInt8 is Infer with the Conv2D and Linear products computed in
	// symmetric int8 (per-output-channel weight scales, one dynamic
	// activation scale per sample; see internal/tensor/int8.go). All
	// other layers — BatchNorm, ReLU, pooling — run in float32, so the
	// output differs from Infer only by the quantization error of the
	// conv/linear kernels. Scratch and cache semantics are identical to
	// Infer. Because activation scales are per sample, a batched
	// InferInt8 forward remains bitwise identical to the sequential one.
	InferInt8
)

// IsInfer reports whether m is one of the serving fast-path modes
// (Infer or InferInt8): no backward caches, scratch-backed outputs,
// per-sample BN sources honoured.
func (m Mode) IsInfer() bool { return m == Infer || m == InferInt8 }

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Train:
		return "train"
	case Eval:
		return "eval"
	case Adapt:
		return "adapt"
	case Infer:
		return "infer"
	case InferInt8:
		return "infer-int8"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	// Name identifies the parameter for serialization and for the
	// adaptation selectors (e.g. "layer3.bn2.gamma").
	Name string
	// Value is the parameter tensor.
	Value *tensor.Tensor
	// Grad accumulates the loss gradient; same shape as Value.
	Grad *tensor.Tensor
	// Frozen marks a parameter no optimizer will step: the owning
	// layer's Backward leaves Grad untouched, and backprop stops below
	// the lowest layer that still has an unfrozen parameter (see
	// Sequential.Backward). The zero value is trainable; SetTrainable
	// is how the adaptation methods set it.
	Frozen bool
}

// NewParam allocates a parameter with a zeroed gradient.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable network component.
type Layer interface {
	// Forward computes the layer output for input x under the given
	// mode, caching activations needed by Backward.
	Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating parameter gradients. It must be called after
	// Forward on the same input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// Name returns the layer's identifier (used to prefix param names).
	Name() string
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// SetTrainable marks exactly the params in trainable as trainable and
// every other param in all as frozen. It is a pure function of its
// arguments, so calling it again — or with another set on the same
// model — simply re-draws the line.
func SetTrainable(all, trainable []*Param) {
	for _, p := range all {
		p.Frozen = true
	}
	for _, p := range trainable {
		p.Frozen = false
	}
}

// TrainableReporter is implemented by layers that can say whether any
// of their parameters is unfrozen without building a Params slice (the
// adaptation step asks once per Backward and must not allocate).
type TrainableReporter interface {
	HasTrainable() bool
}

// HasTrainable reports whether l has at least one unfrozen parameter.
func HasTrainable(l Layer) bool {
	if r, ok := l.(TrainableReporter); ok {
		return r.HasTrainable()
	}
	for _, p := range l.Params() {
		if !p.Frozen {
			return true
		}
	}
	return false
}

// ParamCount returns the total number of scalar parameters.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// FilterParams returns the params for which keep returns true.
func FilterParams(params []*Param, keep func(*Param) bool) []*Param {
	var out []*Param
	for _, p := range params {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}
