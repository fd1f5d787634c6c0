package tensor

import "fmt"

// The allocating forms of the kernels and elementwise ops: references
// and fixtures for the tests, which production calls through the Into
// variants instead.

// ewise applies op elementwise into a fresh tensor.
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

// Scale returns alpha*a in a fresh tensor.
func Scale(a *Tensor, alpha float32) *Tensor {
	out := New(a.shape...)
	for i := range a.Data {
		out.Data[i] = alpha * a.Data[i]
	}
	return out
}

// AddScalar returns a+c elementwise in a fresh tensor.
func AddScalar(a *Tensor, c float32) *Tensor {
	out := New(a.shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + c
	}
	return out
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

// MatMul computes the matrix product a·b of two 2-D tensors
// ([m,k]·[k,n] → [m,n]). The kernel is parallelized over output
// bands through the shared worker pool (internal/par) when the shape
// is past the serial gate.
func MatMul(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner-dimension mismatch %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	runGEMM(matmulRows, out.Data, a.Data, b.Data, m, k, n)
	return out
}

// MatMulTA computes aᵀ·b for a:[k,m], b:[k,n] → [m,n] without
// materializing the transpose.
func MatMulTA(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTA needs 2-D operands, got %v × %v", a.shape, b.shape))
	}
	k, m := a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTA inner-dimension mismatch %v × %v", a.shape, b.shape))
	}
	out := New(m, b.shape[1])
	MatMulTAInto(out, a, b)
	return out
}

// Col2Im is the adjoint of Im2Col: it scatters a [c*kh*kw, n*oh*ow]
// matrix back into a [n, c, h, w] tensor, accumulating where kernel
// windows overlap. It is the gradient of Im2Col and is used by the
// convolution backward pass.
func Col2Im(cols *Tensor, n, c, h, w int, g ConvGeom) *Tensor {
	out := New(n, c, h, w)
	Col2ImInto(out, cols, g)
	return out
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}
