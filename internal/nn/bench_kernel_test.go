package nn

import (
	"testing"

	"ldbnadapt/internal/tensor"
)

// Layer-level kernel benchmarks, meant for `-cpu 1,4` sweeps: where
// the tensor-level benchmarks measure one pooled kernel in isolation,
// these measure the layer paths (forward, adapt step), which walk the
// batch on the caller while their kernels band on the pool. `make bench-smoke`
// executes each once so they cannot rot.

func benchConv() (*Conv2D, *tensor.Tensor) {
	rng := tensor.NewRNG(11)
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	c := NewConv2D("bench", 32, 64, g, false, rng)
	x := tensor.New(4, 32, 28, 28)
	rng.FillUniform(x, -1, 1)
	return c, x
}

func BenchmarkKernelConvInfer(b *testing.B) {
	c, x := benchConv()
	c.Forward(x, Infer) // grow scratch and the kernels' lines outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x, Infer)
	}
}

func BenchmarkKernelConvAdaptStep(b *testing.B) {
	c, x := benchConv()
	out := c.Forward(x, Adapt)
	grad := tensor.New(out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3))
	tensor.NewRNG(12).FillUniform(grad, -1, 1)
	c.Backward(grad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x, Adapt)
		c.Backward(grad)
	}
}

func BenchmarkKernelBatchNormAdaptStep(b *testing.B) {
	rng := tensor.NewRNG(13)
	bn := NewBatchNorm2D("bench", 64)
	x := tensor.New(4, 64, 28, 28)
	grad := tensor.New(4, 64, 28, 28)
	rng.FillUniform(x, -1, 1)
	rng.FillUniform(grad, -1, 1)
	bn.Forward(x, Adapt)
	bn.Backward(grad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.Forward(x, Adapt)
		bn.Backward(grad)
	}
}
