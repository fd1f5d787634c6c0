package tensor

import (
	"fmt"
	"math"
)

// binary applies op elementwise into a fresh tensor.
func ewise(a, b *Tensor, name string, op func(x, y float32) float32) *Tensor {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", name, a.shape, b.shape))
	}
	out := New(a.shape...)
	for i := range a.Data {
		out.Data[i] = op(a.Data[i], b.Data[i])
	}
	return out
}

// Add returns a+b elementwise.
func Add(a, b *Tensor) *Tensor {
	return ewise(a, b, "Add", func(x, y float32) float32 { return x + y })
}

// Sub returns a-b elementwise.
func Sub(a, b *Tensor) *Tensor {
	return ewise(a, b, "Sub", func(x, y float32) float32 { return x - y })
}

// Mul returns a*b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	return ewise(a, b, "Mul", func(x, y float32) float32 { return x * y })
}

// Div returns a/b elementwise.
func Div(a, b *Tensor) *Tensor {
	return ewise(a, b, "Div", func(x, y float32) float32 { return x / y })
}

// AddInPlace accumulates b into a and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: AddInPlace size mismatch %v vs %v", a.shape, b.shape))
	}
	addRow(a.Data, b.Data)
	return a
}

// AxpyInPlace computes a += alpha*b and returns a.
func AxpyInPlace(a *Tensor, alpha float32, b *Tensor) *Tensor {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: AxpyInPlace size mismatch %v vs %v", a.shape, b.shape))
	}
	for i := range a.Data {
		a.Data[i] += alpha * b.Data[i]
	}
	return a
}

// Scale returns alpha*a in a fresh tensor.
func Scale(a *Tensor, alpha float32) *Tensor {
	out := New(a.shape...)
	for i := range a.Data {
		out.Data[i] = alpha * a.Data[i]
	}
	return out
}

// ScaleInPlace multiplies every element of a by alpha and returns a.
func ScaleInPlace(a *Tensor, alpha float32) *Tensor {
	for i := range a.Data {
		a.Data[i] *= alpha
	}
	return a
}

// AddScalar returns a+c elementwise in a fresh tensor.
func AddScalar(a *Tensor, c float32) *Tensor {
	out := New(a.shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + c
	}
	return out
}

// Apply returns f mapped over a in a fresh tensor.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.shape...)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i])
	}
	return out
}

// ApplyInPlace maps f over a in place and returns a.
func ApplyInPlace(a *Tensor, f func(float32) float32) *Tensor {
	for i := range a.Data {
		a.Data[i] = f(a.Data[i])
	}
	return a
}

// Sum returns the sum of all elements (accumulated in float64 for
// stability).
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// Max returns the largest element.
func (t *Tensor) Max() float32 {
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest element.
func (t *Tensor) Min() float32 {
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the largest element (first on ties).
func (t *Tensor) Argmax() int {
	best, bi := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Dot returns the inner product of two equal-sized tensors.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %v vs %v", a.shape, b.shape))
	}
	s := 0.0
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of the tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MeanStd returns the mean and (population) standard deviation of all
// elements, computed in float64.
func (t *Tensor) MeanStd() (mean, std float64) {
	mean = t.Mean()
	v := 0.0
	for _, x := range t.Data {
		d := float64(x) - mean
		v += d * d
	}
	v /= float64(len(t.Data))
	return mean, math.Sqrt(v)
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.NDim() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs 2-D tensor, got %v", a.shape))
	}
	r, c := a.shape[0], a.shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		row := a.Data[i*c : (i+1)*c]
		for j, v := range row {
			out.Data[j*r+i] = v
		}
	}
	return out
}

// Clamp returns a fresh tensor with every element limited to [lo, hi].
func Clamp(a *Tensor, lo, hi float32) *Tensor {
	return Apply(a, func(v float32) float32 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	})
}
