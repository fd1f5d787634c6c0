package nn

import (
	"math"
	"testing"

	"ldbnadapt/internal/tensor"
)

// The int8 inference path's numerical contract (internal/nn/README.md):
// weights are quantized per output channel with symmetric scales,
// activations per sample, products accumulate in exact int32, and the
// only error sources are the two rounding steps. For one output
//
//	y = Σₖ xₖ·wₖ   with   x = s_x·x_q + e_x,  w = s_w·w_q + e_w,
//	|e_x| ≤ s_x/2, |e_w| ≤ s_w/2
//
// the int8 result s_x·s_w·Σ x_q·w_q differs from y by at most
//
//	½·s_w·Σ|xₖ| + ½·s_x·Σ|wₖ| + K·s_x·s_w
//
// (first-order rounding against the other factor's magnitude, plus a
// generous K-term cover for the second-order products). The tests
// below hold the kernels to that bound on inputs chosen to cross the
// int32 accumulation block boundary, and pin the invalidation
// contract that makes the lazy weight cache safe under adaptation.

// int8LinearBound computes the analytic error bound for row i, output
// j of a Linear int8 forward, given the activation and weight scales.
func int8LinearBound(x, w []float32, sx, sw float32, k int) float64 {
	sumX, sumW := 0.0, 0.0
	for _, v := range x {
		sumX += math.Abs(float64(v))
	}
	for _, v := range w {
		sumW += math.Abs(float64(v))
	}
	return 0.5*float64(sw)*sumX + 0.5*float64(sx)*sumW + float64(k)*float64(sx)*float64(sw)
}

// TestInt8LinearErrorBound: every output of an InferInt8 linear
// forward stays within the analytic quantization-error bound of the
// float32 Infer forward. In = 300 crosses the 256-element int32
// accumulation block, so the blocked kernel's seam is covered.
func TestInt8LinearErrorBound(t *testing.T) {
	const n, in, out = 5, 300, 33
	for _, seed := range []uint64{1, 7, 42} {
		rng := tensor.NewRNG(seed)
		l := NewLinear("fc", in, out, rng)
		rng.FillNormal(l.Bias.Value, 0, 0.5)
		x := tensor.New(n, in)
		rng.FillNormal(x, 0.2, 1.2)

		fp := l.Forward(x, Infer).Clone() // Infer and InferInt8 share scratch
		q8 := l.Forward(x, InferInt8)

		// Recompute the scales the kernel used, to price the bound.
		xq := make([]int8, in)
		wq := make([]int8, in)
		for i := 0; i < n; i++ {
			xi := x.Data[i*in : (i+1)*in]
			sx := tensor.QuantizeInt8(xq, xi)
			for j := 0; j < out; j++ {
				wj := l.Weight.Value.Data[j*in : (j+1)*in]
				sw := tensor.QuantizeInt8(wq, wj)
				diff := math.Abs(float64(fp.At(i, j) - q8.At(i, j)))
				// 1e-4 absolute slack covers the float32 rounding of the
				// reference accumulation itself.
				bound := 1.05*int8LinearBound(xi, wj, sx, sw, in) + 1e-4
				if diff > bound {
					t.Fatalf("seed %d row %d out %d: |%g - %g| = %g exceeds bound %g",
						seed, i, j, fp.At(i, j), q8.At(i, j), diff, bound)
				}
			}
		}
	}
}

// TestInt8ConvCloseToFloat: the conv kernel shares the linear kernel's
// arithmetic through im2col, so rather than re-deriving patch sums the
// test pins the empirical contract the serving stack depends on: int8
// conv outputs stay within a few percent of the float32 output range.
// Measured ≤ 1.5% across these seeds; 5% leaves slack without letting
// a broken scale or seam slip through.
func TestInt8ConvCloseToFloat(t *testing.T) {
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	for _, seed := range []uint64{2, 9, 55} {
		rng := tensor.NewRNG(seed)
		c := NewConv2D("conv", 5, 8, g, true, rng)
		x := tensor.New(2, 5, 9, 11)
		rng.FillNormal(x, 0.3, 1.0)

		fp := c.Forward(x, Infer).Clone()
		q8 := c.Forward(x, InferInt8)

		maxAbs, maxDiff := 0.0, 0.0
		for i, v := range fp.Data {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
			if d := math.Abs(float64(v - q8.Data[i])); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 0.05*maxAbs {
			t.Fatalf("seed %d: int8 conv max error %g is %.1f%% of float range %g, want < 5%%",
				seed, maxDiff, 100*maxDiff/maxAbs, maxAbs)
		}
	}
}

// eqData reports bitwise equality of two tensors' contents.
func eqData(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// TestInt8InvalidateRequantizes pins the lazy-cache contract: after a
// weight mutation, InvalidateWeightCaches must make the next InferInt8 forward
// bitwise-identical to a fresh layer holding the same weights — and
// without the call the stale cache keeps serving the old weights,
// which is exactly why every weight-mutating path must invalidate.
func TestInt8InvalidateRequantizes(t *testing.T) {
	rng := tensor.NewRNG(11)
	l := NewLinear("fc", 64, 16, rng)
	x := tensor.New(3, 64)
	rng.FillNormal(x, 0, 1)

	stale := l.Forward(x, InferInt8).Clone()
	for i := range l.Weight.Value.Data {
		l.Weight.Value.Data[i] *= 1.5
	}
	if got := l.Forward(x, InferInt8); !eqData(got, stale) {
		t.Fatal("int8 cache requantized without InvalidateWeightCaches — the cache is not actually lazy")
	}
	l.InvalidateWeightCaches()
	got := l.Forward(x, InferInt8).Clone()

	fresh := NewLinear("fc2", 64, 16, tensor.NewRNG(99))
	copy(fresh.Weight.Value.Data, l.Weight.Value.Data)
	copy(fresh.Bias.Value.Data, l.Bias.Value.Data)
	want := fresh.Forward(x, InferInt8)
	if !eqData(got, want) {
		t.Fatal("post-invalidate int8 forward does not match a fresh quantization of the same weights")
	}
	if eqData(got, stale) {
		t.Fatal("post-invalidate forward still serves the stale quantization")
	}
}

// TestInt8BatchedMatchesSequential: per-sample activation scales make
// the batched int8 forward bitwise-identical to serving each sample
// alone — the property that lets the engine coalesce frames onto the
// int8 rung without any cross-stream numeric coupling.
func TestInt8BatchedMatchesSequential(t *testing.T) {
	rng := tensor.NewRNG(23)
	l := NewLinear("fc", 48, 12, rng)
	const n = 4
	x := tensor.New(n, 48)
	rng.FillNormal(x, 0.1, 0.9)

	batched := l.Forward(x, InferInt8).Clone()
	for i := 0; i < n; i++ {
		xi := tensor.FromSlice(append([]float32(nil), x.Data[i*48:(i+1)*48]...), 1, 48)
		yi := l.Forward(xi, InferInt8)
		for j := 0; j < 12; j++ {
			if yi.At(0, j) != batched.At(i, j) {
				t.Fatalf("sample %d out %d: solo %g != batched %g", i, j, yi.At(0, j), batched.At(i, j))
			}
		}
	}
}
