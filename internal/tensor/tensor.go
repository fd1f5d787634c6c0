// Package tensor implements a small dense float32 tensor library: the
// numeric substrate for every neural-network component in this
// repository. Tensors are row-major and contiguous; shapes are immutable
// after construction (FromSlice over another tensor's Data gives a view
// with a new shape).
//
// The package is deliberately minimal — only the operations needed by
// the UFLD lane detector, the LD-BN-ADAPT algorithm and the CARLANE
// SOTA baseline are provided — but every operation is fully implemented
// (no stubs) and covered by unit and property tests.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 array with an explicit shape.
// The zero value is not usable; construct with New, Zeros, FromSlice &c.
type Tensor struct {
	// Data holds the elements in row-major order. len(Data) == Size().
	Data []float32
	// shape holds the extent of each dimension.
	shape []int
}

// New allocates a zero-filled tensor with the given shape.
// It panics if any dimension is non-positive.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// Ones allocates a tensor filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Full allocates a tensor filled with v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is
// used directly (not copied); it panics if the element count mismatches.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// checkShape validates a shape and returns the element count.
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal sizes.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.Data, src.Data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set writes v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d for shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			// Format the failing axis, not idx: a formatted idx escapes,
			// and every variadic At/Set call would then allocate.
			panic(fmt.Sprintf("tensor: index %d on axis %d out of range for shape %v", x, i, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// String renders a compact description (shape plus leading elements),
// suitable for debugging and error messages.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.Data[i])
	}
	if n < len(t.Data) {
		b.WriteString(" ...")
	}
	b.WriteString("]")
	return b.String()
}

// AllClose reports whether all elements of t and o are within tol of
// each other. It returns false on shape-size mismatch or NaNs.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if len(t.Data) != len(o.Data) {
		return false
	}
	for i := range t.Data {
		a, b := float64(t.Data[i]), float64(o.Data[i])
		if math.IsNaN(a) || math.IsNaN(b) {
			return false
		}
		if math.Abs(a-b) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}
