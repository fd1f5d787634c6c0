package tensor

import (
	"math"
	"testing"
)

// convS1Shapes are stride-1 geometries: the models' 3×3/p1 and 1×1/p0,
// an unpadded 3×3, 5×5/p2 and 7×7/p3, one-sided paddings, a 1×1 with
// padding (a plane but no compaction), and inputs narrow enough that
// ow is 1 or below 8.
func convS1Shapes() []lowerShape {
	sq := func(k, p int) ConvGeom { return ConvGeom{KH: k, KW: k, SH: 1, SW: 1, PH: p, PW: p} }
	return []lowerShape{
		{1, 6, 12, 30, sq(3, 1)}, {1, 12, 6, 15, sq(3, 1)}, {1, 5, 7, 9, sq(3, 0)},
		{1, 12, 6, 15, sq(1, 0)}, {1, 4, 9, 11, sq(5, 2)}, {1, 3, 10, 13, sq(7, 3)},
		{1, 3, 5, 1, sq(3, 1)}, {1, 2, 4, 3, sq(3, 0)}, {1, 3, 3, 7, sq(3, 1)},
		{1, 2, 8, 5, sq(5, 2)}, {1, 3, 6, 1, sq(1, 0)},
		{1, 3, 5, 6, ConvGeom{KH: 3, KW: 1, SH: 1, SW: 1, PH: 1}},
		{1, 3, 5, 6, ConvGeom{KH: 1, KW: 3, SH: 1, SW: 1, PW: 1}},
		{1, 2, 4, 5, ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1, PH: 1, PW: 2}},
	}
}

// TestConvS1MatchesIm2Col holds the plane convolution to im2col +
// MatMulInto bit for bit on every geometry, with ±0 weights and NaN,
// ±Inf and −0 inputs, one ConvPlane reused across every shape (so each
// change of shape rebuilds the halo and tables, and a repeat does not).
func TestConvS1MatchesIm2Col(t *testing.T) {
	rng := NewRNG(0xc5a1)
	var s ConvPlane
	negZero := math.Float32frombits(1 << 31)
	for rep := 0; rep < 2; rep++ {
		for _, sh := range convS1Shapes() {
			g := sh.g
			oh, ow := g.OutSize(sh.h, sh.w)
			K, outC := sh.c*g.KH*g.KW, 5
			x := New(1, sh.c, sh.h, sh.w)
			wm := New(outC, K)
			rng.FillUniform(x, -2, 2)
			rng.FillUniform(wm, -2, 2)
			sprinkleZeros(wm.Data)
			x.Data[len(x.Data)/3] = negZero
			if rep == 1 {
				x.Data[0] = float32(math.NaN())
				x.Data[len(x.Data)-1] = float32(math.Inf(1))
				x.Data[len(x.Data)/2] = float32(math.Inf(-1))
			}
			cols := New(K, oh*ow)
			Im2ColInto(cols, x, g)
			want := New(outC, oh*ow)
			MatMulInto(want, wm, cols)
			got := Full(float32(math.NaN()), outC, oh*ow)
			ConvS1Into(got, wm, x, g, &s)
			if i := sameBits(want.Data, got.Data); i >= 0 {
				t.Fatalf("rep %d %+v: element %d is %v, im2col gives %v", rep, sh, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// convDXShapes are one-sample geometries for the fused input gradient:
// the models' 3×3/p1 at strides 1 and 2, the 7×7/s2/p3 stem, the 1×1
// shortcut at strides 1 and 2, padding on one axis only (stride 1 and
// 2), an asymmetric kernel with unequal strides, padding wider than
// the kernel (taps that only ever read padding), odd and even sizes,
// and an 8×8 output whose line is exactly two tiles (no slack copy).
func convDXShapes() []lowerShape {
	sq := func(k, s, p int) ConvGeom { return ConvGeom{KH: k, KW: k, SH: s, SW: s, PH: p, PW: p} }
	return []lowerShape{
		{1, 6, 12, 30, sq(3, 1, 1)}, {1, 5, 7, 9, sq(3, 1, 1)}, {1, 3, 8, 8, sq(3, 1, 1)},
		{1, 4, 9, 21, sq(3, 2, 1)}, {1, 3, 10, 14, sq(3, 2, 1)},
		{1, 3, 18, 37, sq(7, 2, 3)}, {1, 3, 16, 16, sq(7, 2, 3)},
		{1, 12, 6, 15, sq(1, 1, 0)}, {1, 4, 7, 11, sq(1, 2, 0)}, {1, 4, 6, 10, sq(1, 2, 0)},
		{1, 5, 7, 9, sq(3, 1, 0)}, {1, 4, 9, 11, sq(5, 1, 2)},
		{1, 3, 5, 6, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1}},
		{1, 3, 5, 6, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PW: 1}},
		{1, 3, 9, 10, ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PW: 1}},
		{1, 2, 11, 13, ConvGeom{KH: 5, KW: 3, SH: 3, SW: 2, PH: 2, PW: 1}},
		{1, 1, 4, 3, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 4}},
		{1, 3, 5, 1, sq(3, 1, 1)},
	}
}

// TestConvDXMatchesCol2Im holds the fused input gradient to MatMulInto
// + Col2ImInto bit for bit on every geometry: ±0 and Inf weights, NaN,
// ±Inf and −0 in the gradient, serially and banded over input
// channels at several worker counts with the gates lowered, one
// ConvDXLines reused across every shape.
func TestConvDXMatchesCol2Im(t *testing.T) {
	rng := NewRNG(0xdc01)
	var s ConvDXLines
	pm, lm := matmulParMin, lowerParMin
	t.Cleanup(func() { matmulParMin, lowerParMin = pm, lm })
	negZero := math.Float32frombits(1 << 31)
	for rep := 0; rep < 2; rep++ {
		for _, sh := range convDXShapes() {
			g := sh.g
			oh, ow := g.OutSize(sh.h, sh.w)
			K, outC := sh.c*g.KH*g.KW, 5
			wt := New(K, outC)
			grad := New(outC, oh*ow)
			rng.FillUniform(wt, -2, 2)
			rng.FillUniform(grad, -2, 2)
			sprinkleZeros(wt.Data)
			sprinkleZeros(grad.Data)
			grad.Data[len(grad.Data)/3] = negZero
			if rep == 1 {
				wt.Data[len(wt.Data)/2] = float32(math.Inf(1))
				wt.Data[len(wt.Data)-1] = float32(math.Inf(-1))
				grad.Data[0] = float32(math.NaN())
				grad.Data[len(grad.Data)-1] = float32(math.Inf(1))
				grad.Data[len(grad.Data)/2] = float32(math.Inf(-1))
			}
			matmulParMin, lowerParMin = math.MaxInt, math.MaxInt
			dcols := New(K, oh*ow)
			MatMulInto(dcols, wt, grad)
			want := New(1, sh.c, sh.h, sh.w)
			Col2ImInto(want, dcols, g)
			got := Full(float32(math.NaN()), 1, sh.c, sh.h, sh.w)
			ConvDXInto(got, wt, grad, g, &s)
			if i := sameBits(want.Data, got.Data); i >= 0 {
				t.Fatalf("rep %d %+v serial: element %d is %v, col2im gives %v", rep, sh, i, got.Data[i], want.Data[i])
			}
			matmulParMin = 1
			for _, procs := range parProcs {
				withMaxProcs(t, procs, func() {
					got := Full(float32(math.NaN()), 1, sh.c, sh.h, sh.w)
					ConvDXInto(got, wt, grad, g, &s)
					if i := sameBits(want.Data, got.Data); i >= 0 {
						t.Fatalf("rep %d %+v banded at %d procs: element %d is %v, col2im gives %v", rep, sh, procs, i, got.Data[i], want.Data[i])
					}
				})
			}
		}
	}
}
