package nn

import (
	"fmt"

	"ldbnadapt/internal/tensor"
)

// ReLU is the rectified linear activation max(0, x).
type ReLU struct {
	name string
	// lastOut is the last Train/Eval/Adapt output (layer-owned, written
	// in place by no one): y > 0 exactly where x was, so it is the
	// backward gate and no separate mask is kept.
	lastOut *tensor.Tensor
	bpOut   Scratch // Train/Eval/Adapt forward output, always the layer's own
	dxOut   Scratch // backward gradient output (an arena slot in a planned model)
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer identifier.
func (r *ReLU) Name() string { return r.name }

// Params returns nil (ReLU has no parameters).
func (r *ReLU) Params() []*Param { return nil }

// Forward computes max(0, x) into layer scratch and retains the output
// for Backward. In Infer mode it clamps in place (the input is an
// upstream layer's scratch buffer that is not read again) and retains
// nothing.
func (r *ReLU) Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor {
	if mode.IsInfer() {
		r.lastOut = nil // Backward after an Infer forward must panic
		tensor.ReLUClamp(x.Data)
		return x
	}
	out := r.bpOut.For(x.Shape()...)
	tensor.ReLUInto(out.Data, x.Data)
	r.lastOut = out
	return out
}

// Backward gates the incoming gradient by the retained output.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastOut == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", r.name))
	}
	if grad.Size() != r.lastOut.Size() {
		panic(fmt.Sprintf("nn: %s: grad size %d, want %d", r.name, grad.Size(), r.lastOut.Size()))
	}
	out := r.dxOut.For(grad.Shape()...)
	tensor.ReLUGradInto(out.Data, r.lastOut.Data, grad.Data)
	return out
}

// Flatten reshapes [n, c, h, w] (or any rank ≥ 2) to [n, rest].
type Flatten struct {
	name      string
	lastShape []int
	inferView View // cached forward header of the infer modes
	bpView    View // cached forward header of Train, Eval and Adapt
	gradView  View // cached backward header
}

// NewFlatten constructs a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name returns the layer identifier.
func (f *Flatten) Name() string { return f.name }

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }

// Forward flattens all but the leading (batch) dimension. The
// returned header is a cached view re-pointed at x's storage, one per
// scratch class, so alternating an infer batch with a Train, Eval or
// Adapt batch of another size re-shapes neither; it is valid until
// the layer's next forward of the same class.
func (f *Flatten) Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor {
	if x.NDim() < 2 {
		panic(fmt.Sprintf("nn: %s: input %v, want rank ≥ 2", f.name, x.Shape()))
	}
	v := &f.inferView
	if !mode.IsInfer() {
		v = &f.bpView
		f.lastShape = append(f.lastShape[:0], x.Shape()...)
	}
	return v.Of(x.Data, x.Dim(0), x.Size()/x.Dim(0))
}

// Backward restores the cached input shape (as a cached view over the
// incoming gradient's storage).
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.lastShape == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", f.name))
	}
	return f.gradView.Of(grad.Data, f.lastShape...)
}
