package tensor

import (
	"fmt"
	"math"
)

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

// ScaleInPlace multiplies every element of a by alpha and returns a.
func ScaleInPlace(a *Tensor, alpha float32) *Tensor {
	for i := range a.Data {
		a.Data[i] *= alpha
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
