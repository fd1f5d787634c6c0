package nn

import "ldbnadapt/internal/tensor"

// This file holds the allocation-free plumbing for the hot forward and
// backward paths. Two reuse primitives cover every case:
//
//   - Scratch owns a growable float32 buffer and hands out a tensor
//     header over it. The header itself is cached and re-pointed, so a
//     steady-state caller that asks for the same shape every time
//     performs zero allocations.
//   - View caches only a header over caller-owned storage, for the
//     per-sample sub-tensor views the conv/linear kernels take of a
//     batch (tensor.FromSlice allocates a header + shape slice per
//     call; View makes that a one-time cost per shape).
//
// Ownership contract (see internal/nn/README.md): a tensor returned
// from a Scratch or View is valid only until the owner's next request
// with the same primitive (from a Scratch placed in an Arena slot,
// until any request in that slot). Layers therefore never let two live uses of
// one Scratch overlap, and callers of a forward in any mode must copy
// anything they want to keep across a second forward of the same
// class (the infer modes, or Train/Eval/Adapt).

// Scratch is a reusable tensor: a growable buffer plus a cached header.
// The zero value is ready to use. A Scratch placed in an Arena slot
// hands out the slot's buffer, which other layers' Scratches share,
// and keeps only its header.
type Scratch struct {
	buf  []float32
	slot *[]float32 // the arena slot's buffer, when placed
	v    View
}

// For returns a tensor of the given shape backed by the scratch buffer
// (or its arena slot's), growing it when too small. Contents are
// uninitialized (whatever the previous use left); callers that need
// zeros must Zero() it. The returned tensor is only valid until the
// next For call (on a placed Scratch, until the next For of any
// Scratch in the same slot).
func (s *Scratch) For(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	buf := &s.buf
	if s.slot != nil {
		buf = s.slot
	}
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return s.v.Of((*buf)[:n], shape...)
}

// View is a cached tensor header over caller-owned storage. The zero
// value is ready to use.
type View struct {
	t *tensor.Tensor
}

// Of returns a tensor of the given shape whose Data is exactly data.
// The header is reused when the shape matches the previous call, so
// repeated views of equal shape allocate nothing. The returned tensor
// is only valid until the next Of call on the same View.
func (v *View) Of(data []float32, shape ...int) *tensor.Tensor {
	if v.t != nil && shapeEqual(v.t, shape) {
		v.t.Data = data
		return v.t
	}
	// Copy the shape before handing it to FromSlice: its panic path
	// formats the slice, which makes the parameter escape — rebuilding
	// the header from a fresh copy keeps `shape` itself non-escaping,
	// so the hot path's variadic argument stays on the caller's stack
	// instead of costing one []int allocation per call.
	own := make([]int, len(shape))
	copy(own, shape)
	v.t = tensor.FromSlice(data, own...)
	return v.t
}

// shapeEqual reports whether t's shape is exactly shape.
func shapeEqual(t *tensor.Tensor, shape []int) bool {
	if t.NDim() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

// growF32 returns buf resized to n, reallocating only on growth.
func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// growI8 returns buf resized to n, reallocating only on growth.
func growI8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	return buf[:n]
}

// growI32 returns buf resized to n, reallocating only on growth.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
