package nn

import "slices"

// Arena is a model's infer arena: a few buffers ("slots") that the
// infer-mode outputs of all its layers share. A plan run once at
// construction (Plan) places each layer's infer output in a slot that
// nothing live at that point of the forward holds: not the layer's own
// input, and not the slots the caller keeps (a residual block's input,
// read again by its shortcut). BatchNorm2D, ReLU and Flatten run in
// place over their input in the infer modes, so they take no slot.
// Each slot grows to the largest activation placed in it, so a planned
// forward holds a few activations instead of one per layer. The
// Train/Eval/Adapt class is untouched: Backward reads its per-layer
// scratch.
//
// A planned layer's infer output is valid only until the model's next
// infer forward, not merely the layer's own. A layer that is never
// planned keeps its own infer scratch, as before.
type Arena struct {
	slots []*[]float32
}

// InferPlanner is a layer whose infer-mode outputs can be placed in an
// Arena.
type InferPlanner interface {
	// PlanInfer places the layer's infer outputs in a, given that its
	// input is in slot in (-1: a buffer outside the arena) and that the
	// slots in keep must survive its forward. It returns the slot that
	// holds its output.
	PlanInfer(a *Arena, in int, keep []int) int
}

// Plan places l's infer outputs in a (see InferPlanner) and returns the
// slot of its output: in for the layers that run in place (BatchNorm2D,
// ReLU and the Flatten view), and -1 for any other layer that is no
// InferPlanner and so writes its own scratch.
func (a *Arena) Plan(l Layer, in int, keep ...int) int {
	switch l := l.(type) {
	case *BatchNorm2D, *ReLU, *Flatten:
		return in
	case InferPlanner:
		return l.PlanInfer(a, in, keep)
	}
	return -1
}

// place points s at the lowest slot that is neither in nor in keep,
// adding a slot when every one is taken, and returns its index.
func (a *Arena) place(s *Scratch, in int, keep []int) int {
	i := 0
	for ; i < len(a.slots); i++ {
		if i != in && !slices.Contains(keep, i) {
			break
		}
	}
	if i == len(a.slots) {
		a.slots = append(a.slots, new([]float32))
	}
	s.buf, s.slot = nil, a.slots[i]
	return i
}
