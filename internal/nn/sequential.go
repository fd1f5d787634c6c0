package nn

import (
	"fmt"

	"ldbnadapt/internal/tensor"
)

// Sequential chains layers, forwarding left-to-right and backwarding
// right-to-left. It itself satisfies Layer, so sequences nest.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential constructs a layer chain.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Name returns the chain identifier.
func (s *Sequential) Name() string { return s.name }

// Forward runs each layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, mode)
	}
	return x
}

// PlanForward plans each layer in order, each reading the slot the one
// before it wrote, and keeps the caller's slots live throughout.
func (s *Sequential) PlanForward(a *Arena, in int, keep []int) int {
	for _, l := range s.Layers {
		in = a.PlanForward(l, in, keep...)
	}
	return in
}

// PlanBackward plans each layer's backward in reverse order, each
// reading the gradient slot the one above it wrote.
func (s *Sequential) PlanBackward(a *Arena, g int, keep []int) int {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		g = a.PlanBackward(s.Layers[i], g, keep...)
	}
	return g
}

// Backward runs each layer's backward pass in reverse order, stopping
// after the lowest layer that still has a trainable parameter: below
// it nothing consumes a gradient. When it stops early it returns nil
// (under LD-BN-ADAPT the stem convolution's Backward is never called;
// under FC-ADAPT the whole backbone's is not). With every parameter
// frozen — or none at all — the chain is a pure function of its input
// and the full input gradient is returned, as it is when the bottom
// layer is trainable, unless that layer computes none (a conv after
// SkipInputGrad), when it is nil too.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	cut := 0
	for i, l := range s.Layers {
		if HasTrainable(l) {
			cut = i
			break
		}
	}
	for i := len(s.Layers) - 1; i >= cut; i-- {
		grad = s.Layers[i].Backward(grad)
		if grad == nil && i > cut {
			panic(fmt.Sprintf("nn: %s: %s stopped backprop, but %s below it still has trainable parameters",
				s.name, s.Layers[i].Name(), s.Layers[cut].Name()))
		}
	}
	if cut > 0 {
		return nil
	}
	return grad
}

// HasTrainable reports whether any layer in the chain has an unfrozen
// parameter.
func (s *Sequential) HasTrainable() bool {
	for _, l := range s.Layers {
		if HasTrainable(l) {
			return true
		}
	}
	return false
}

// WeightCacheInvalidator is implemented by layers (and composite
// layers) that cache something derived from their weights: the int8
// tables for InferInt8 forwards.
type WeightCacheInvalidator interface {
	InvalidateWeightCaches()
}

// InvalidateWeightCaches drops every weight-derived cache in the chain
// (the int8 tables) so the next use rebuilds from the current weights.
func (s *Sequential) InvalidateWeightCaches() {
	for _, l := range s.Layers {
		if inv, ok := l.(WeightCacheInvalidator); ok {
			inv.InvalidateWeightCaches()
		}
	}
}

// Params concatenates all layer parameters in order.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// BatchNorms returns every BatchNorm2D in the chain, recursing into
// nested Sequential and BatchNormCarrier layers. The adaptation
// algorithms use this to locate the parameters they update.
func (s *Sequential) BatchNorms() []*BatchNorm2D {
	var out []*BatchNorm2D
	for _, l := range s.Layers {
		out = append(out, CollectBatchNorms(l)...)
	}
	return out
}

// BatchNormCarrier is implemented by composite layers (e.g. residual
// blocks) that contain BatchNorm2D layers and want them discoverable by
// the adaptation algorithms.
type BatchNormCarrier interface {
	BatchNorms() []*BatchNorm2D
}

// CollectBatchNorms extracts the BatchNorm2D layers reachable from l.
func CollectBatchNorms(l Layer) []*BatchNorm2D {
	switch v := l.(type) {
	case *BatchNorm2D:
		return []*BatchNorm2D{v}
	case BatchNormCarrier:
		return v.BatchNorms()
	default:
		return nil
	}
}
