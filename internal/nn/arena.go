package nn

import (
	"slices"

	"ldbnadapt/internal/tensor"
)

// Arena is one scratch class of a model: a few buffers ("slots") that
// the outputs of all its layers share. A model has two, planned once
// at construction by PlanModel:
//
//   - The infer arena holds the infer-mode outputs. BatchNorm2D, ReLU
//     and Flatten run in place over their input in the infer modes, so
//     they take no slot; Conv2D, Linear and MaxPool2D outputs do.
//   - The backprop arena holds every Train/Eval/Adapt buffer that no
//     Backward reads: the Conv2D and BatchNorm2D outputs, each layer's
//     input gradient dX and a residual block's gated gradient. What a
//     Backward does read keeps its layer's own buffer: BatchNorm2D's
//     x̂, the ReLU and residual-block outputs its Backward gates on,
//     and the MaxPool2D and Linear outputs, which the next conv or
//     Linear retains as its input. The arena also hands every conv of
//     the model its per-call scratch: one tensor.ConvPlane per input
//     channel count and geometry (in a ResNet that fixes the input
//     shape, so the shared plane's halo never needs re-zeroing), and
//     one tensor.ConvDXLines and tensor.ConvDWLines for all of them.
//
// A plan walks the layers in the order they run and places each buffer
// in a slot that nothing live at that point holds: not the layer's own
// input, and not the slots the caller keeps (a residual block's input
// until its shortcut reads it, its main output across the downsample
// branch, and in the backward its gated gradient until the shortcut
// reads it). Each slot grows to the largest buffer placed in it, so a
// planned model holds a few activations per class instead of one per
// layer. The two classes stay apart because a serving replica
// interleaves a batched infer with a one-frame step.
//
// Lifetimes in a planned model: an infer output is valid until the
// model's next infer forward; a Train/Eval/Adapt conv or BN output, or
// a dX, until the model's next Train/Eval/Adapt forward or Backward. A
// layer that is never planned keeps its own buffers, as before.
type Arena struct {
	backprop bool
	slots    []*[]float32
	free     []int // Place's scratch

	// The backprop arena's shared conv scratch (see Conv2D.share).
	planes map[planeKey]*tensor.ConvPlane
	dxl    tensor.ConvDXLines
	dwl    tensor.ConvDWLines
}

// planeKey names the convs that share one ConvPlane.
type planeKey struct {
	inC int
	g   tensor.ConvGeom
}

// Planner is a composite layer whose buffers can be placed in an Arena.
// In both methods a slot of -1 is a buffer outside the arena.
type Planner interface {
	// PlanForward places the layer's forward outputs of a's class in
	// a, given that its input is in slot in and that the slots in keep
	// must survive its forward, and returns the slot of its output.
	PlanForward(a *Arena, in int, keep []int) int
	// PlanBackward places the buffers its Backward writes in the
	// backprop arena a, given that the incoming gradient is in slot g
	// and that the slots in keep must survive, and returns the slot of
	// the input gradient it returns.
	PlanBackward(a *Arena, g int, keep []int) int
}

// PlanModel plans the two arenas of a model whose layers are net (see
// Arena). Call it once, at construction.
func PlanModel(net Layer) {
	infer, bp := &Arena{}, &Arena{backprop: true}
	infer.PlanForward(net, -1)
	bp.PlanForward(net, -1)
	bp.PlanBackward(net, -1)
}

// Infer reports whether a is an infer arena.
func (a *Arena) Infer() bool { return !a.backprop }

// PlanForward places l's forward outputs of a's class (see Planner)
// and returns the slot of its output: in for a layer that runs in place
// or views its input, and -1 for one that writes its own buffer.
func (a *Arena) PlanForward(l Layer, in int, keep ...int) int {
	switch l := l.(type) {
	case *Flatten:
		return in
	case *BatchNorm2D:
		if a.backprop {
			return a.Place(&l.bpOut, in, keep...)
		}
		return in
	case *ReLU:
		if a.backprop {
			return -1 // its Backward gates on its output
		}
		return in
	case *Conv2D:
		if a.backprop {
			l.share(a)
			return a.Place(&l.bpOut, in, keep...)
		}
		return a.Place(&l.inferOut, in, keep...)
	case *Linear:
		if a.backprop {
			return -1 // the next Linear retains it, or it is the model's logits
		}
		return a.Place(&l.inferOut, in, keep...)
	case *MaxPool2D:
		if a.backprop {
			return -1 // the next conv retains it
		}
		return a.Place(&l.inferOut, in, keep...)
	case Planner:
		return l.PlanForward(a, in, keep)
	}
	return -1
}

// PlanBackward places the input gradient l's Backward writes in the
// backprop arena a (see Planner) and returns its slot: g for a view,
// -1 for a layer that writes its own buffer or, like a conv that
// computes no input gradient, none.
func (a *Arena) PlanBackward(l Layer, g int, keep ...int) int {
	switch l := l.(type) {
	case *Flatten:
		return g
	case *BatchNorm2D:
		return a.Place(&l.dxOut, g, keep...)
	case *ReLU:
		return a.Place(&l.dxOut, g, keep...)
	case *Conv2D:
		if l.noDX {
			return -1
		}
		return a.Place(&l.dxOut, g, keep...)
	case *Linear:
		return a.Place(&l.dxOut, g, keep...)
	case *MaxPool2D:
		return a.Place(&l.dxOut, g, keep...)
	case Planner:
		return l.PlanBackward(a, g, keep)
	}
	return -1
}

// Place points s at a slot that is neither in nor in keep, adding a
// slot when every one is taken, and returns its index.
func (a *Arena) Place(s *Scratch, in int, keep ...int) int {
	a.free = a.free[:0]
	for i := range a.slots {
		if i != in && !slices.Contains(keep, i) {
			a.free = append(a.free, i)
		}
	}
	i := pickSlot(a.free, len(a.slots))
	if i == len(a.slots) {
		a.slots = append(a.slots, new([]float32))
	}
	s.buf, s.slot = nil, a.slots[i]
	return i
}

// pickSlot chooses among the free slots, in increasing order, or n for
// a new one. A plan takes the lowest free slot; the plan tests swap in
// other rules, under which a plan that forgets a live value places a
// layer over it.
var pickSlot = func(free []int, n int) int {
	if len(free) > 0 {
		return free[0]
	}
	return n
}
