package nn

import (
	"math"
	"runtime"
	"testing"

	"ldbnadapt/internal/tensor"
)

// Layer-level bitwise determinism: the banding under Conv2D (its
// per-sample kernels, banded over what each writes) and BatchNorm2D's
// channel banding must be invisible in the output at any worker count.
// Goldens are computed at GOMAXPROCS 1, where every band count is one;
// candidates run with BN's gate at 1 so even a small tensor fans out.
// The conv shape is past the kernels' own GEMM gate.

func lowLayerGates(t *testing.T) {
	t.Helper()
	bn := bnParMin
	bnParMin = 1
	t.Cleanup(func() { bnParMin = bn })
}

func withNNProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	f()
}

func f32Diff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// convRun builds a fresh deterministic conv layer, runs one forward in
// the given mode (and a backward when the mode supports it) and
// returns copies of the results.
func convRun(mode Mode) (out, dx, dw []float32) {
	rng := tensor.NewRNG(42)
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	c := NewConv2D("c", 3, 64, g, true, rng)
	x := tensor.New(5, 3, 32, 32) // 5 samples; 1.8M MACs each, past the kernels' 2^19 gate
	rng.FillUniform(x, -1, 1)
	o := c.Forward(x, mode)
	out = append([]float32(nil), o.Data...)
	if mode == Adapt || mode == Train {
		grad := tensor.New(o.Dim(0), o.Dim(1), o.Dim(2), o.Dim(3))
		rng.FillUniform(grad, -1, 1)
		d := c.Backward(grad)
		dx = append([]float32(nil), d.Data...)
		dw = append([]float32(nil), c.Weight.Grad.Data...)
		dw = append(dw, c.Bias.Grad.Data...)
	}
	return out, dx, dw
}

func TestConvParallelBitwise(t *testing.T) {
	for _, mode := range []Mode{Infer, InferInt8, Adapt, Train} {
		var gOut, gDx, gDw []float32
		withNNProcs(t, 1, func() { gOut, gDx, gDw = convRun(mode) })
		lowLayerGates(t)
		for _, procs := range []int{2, 3, 8} {
			withNNProcs(t, procs, func() {
				out, dx, dw := convRun(mode)
				if i := f32Diff(gOut, out); i >= 0 {
					t.Fatalf("mode=%v procs=%d: output element %d differs: %v vs %v",
						mode, procs, i, gOut[i], out[i])
				}
				if i := f32Diff(gDx, dx); i >= 0 {
					t.Fatalf("mode=%v procs=%d: dX element %d differs", mode, procs, i)
				}
				if i := f32Diff(gDw, dw); i >= 0 {
					t.Fatalf("mode=%v procs=%d: dW element %d differs", mode, procs, i)
				}
			})
		}
	}
}

// bnRun builds a fresh deterministic BN layer, runs one forward (and
// backward for gradient modes) and returns results plus the mutated
// running statistics.
func bnRun(mode Mode) (out, dx, dg, running []float32) {
	rng := tensor.NewRNG(7)
	b := NewBatchNorm2D("b", 6)
	rng.FillUniform(b.Gamma.Value, 0.5, 1.5)
	rng.FillUniform(b.Beta.Value, -0.5, 0.5)
	rng.FillUniform(b.RunningMean, -0.2, 0.2)
	rng.FillUniform(b.RunningVar, 0.5, 1.5)
	x := tensor.New(5, 6, 7, 7)
	rng.FillUniform(x, -2, 2)
	o := b.Forward(x, mode)
	out = append([]float32(nil), o.Data...)
	if mode != Infer && mode != InferInt8 {
		grad := tensor.New(5, 6, 7, 7)
		rng.FillUniform(grad, -1, 1)
		d := b.Backward(grad)
		dx = append([]float32(nil), d.Data...)
		dg = append([]float32(nil), b.Gamma.Grad.Data...)
		dg = append(dg, b.Beta.Grad.Data...)
	}
	running = append([]float32(nil), b.RunningMean.Data...)
	running = append(running, b.RunningVar.Data...)
	return out, dx, dg, running
}

func TestBatchNormParallelBitwise(t *testing.T) {
	for _, mode := range []Mode{Infer, Train, Adapt, Eval} {
		var gOut, gDx, gDg, gRun []float32
		withNNProcs(t, 1, func() { gOut, gDx, gDg, gRun = bnRun(mode) })
		lowLayerGates(t)
		for _, procs := range []int{2, 3, 8} {
			withNNProcs(t, procs, func() {
				out, dx, dg, run := bnRun(mode)
				if i := f32Diff(gOut, out); i >= 0 {
					t.Fatalf("mode=%v procs=%d: output element %d differs", mode, procs, i)
				}
				if i := f32Diff(gDx, dx); i >= 0 {
					t.Fatalf("mode=%v procs=%d: dX element %d differs", mode, procs, i)
				}
				if i := f32Diff(gDg, dg); i >= 0 {
					t.Fatalf("mode=%v procs=%d: dγ/dβ element %d differs", mode, procs, i)
				}
				if i := f32Diff(gRun, run); i >= 0 {
					t.Fatalf("mode=%v procs=%d: running stat %d differs", mode, procs, i)
				}
			})
		}
	}
}
