package tensor

import (
	"fmt"
	"math"
	"testing"
)

// convShapes are the forward's geometries. Stride 1: the models'
// 3×3/p1 and 1×1/p0, an unpadded 3×3, 5×5/p2 and 7×7/p3, one-sided
// paddings, a 1×1 with padding (a plane but no compaction), and inputs
// narrow enough that ow is 1 or below 8. Strided: the models' 3×3/s2/p1
// at odd and even sizes — among them nn's gradcheck shape [1,3,7,6],
// whose largest offset belongs to an interior tap, so a plane sized
// from the last tap's offset is too short — the 7×7/s2/p3 stem and the
// 1×1/s2 shortcut (one parity plane of four), stride 3, unequal
// strides with a 5×3 kernel, a stride above the kernel (with an input
// row past every row a tap reads), padding on one axis only, and
// outputs one column wide.
func convShapes() []lowerShape {
	sq := func(k, s, p int) ConvGeom { return ConvGeom{KH: k, KW: k, SH: s, SW: s, PH: p, PW: p} }
	return []lowerShape{
		// First, so that its plane is a fresh buffer no longer than asked
		// for: the fill writes the last parity plane's last row, which
		// no output reads, past the largest offset plus the grid.
		{1, 2, 4, 100, sq(3, 2, 0)},
		{1, 6, 12, 30, sq(3, 1, 1)}, {1, 12, 6, 15, sq(3, 1, 1)}, {1, 5, 7, 9, sq(3, 1, 0)},
		{1, 12, 6, 15, sq(1, 1, 0)}, {1, 4, 9, 11, sq(5, 1, 2)}, {1, 3, 10, 13, sq(7, 1, 3)},
		{1, 3, 5, 1, sq(3, 1, 1)}, {1, 2, 4, 3, sq(3, 1, 0)}, {1, 3, 3, 7, sq(3, 1, 1)},
		{1, 2, 8, 5, sq(5, 1, 2)}, {1, 3, 6, 1, sq(1, 1, 0)},
		{1, 3, 5, 6, ConvGeom{KH: 3, KW: 1, SH: 1, SW: 1, PH: 1}},
		{1, 3, 5, 6, ConvGeom{KH: 1, KW: 3, SH: 1, SW: 1, PW: 1}},
		{1, 2, 4, 5, ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1, PH: 1, PW: 2}},
		{1, 3, 7, 6, sq(3, 2, 1)}, {1, 6, 48, 120, sq(3, 2, 1)}, {1, 4, 9, 21, sq(3, 2, 1)},
		{1, 3, 10, 14, sq(3, 2, 1)}, {1, 5, 4, 4, sq(3, 2, 0)}, {1, 2, 11, 12, sq(3, 3, 1)},
		{1, 3, 18, 37, sq(7, 2, 3)}, {1, 3, 16, 16, sq(7, 2, 3)},
		{1, 6, 48, 120, sq(1, 2, 0)}, {1, 4, 7, 11, sq(1, 2, 0)}, {1, 3, 9, 8, sq(1, 3, 0)},
		{1, 2, 11, 13, ConvGeom{KH: 5, KW: 3, SH: 3, SW: 2, PH: 2, PW: 1}},
		{1, 3, 7, 10, ConvGeom{KH: 2, KW: 2, SH: 3, SW: 3}},
		{1, 3, 9, 10, ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PW: 1}},
		{1, 3, 9, 10, ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1}},
		{1, 3, 7, 1, sq(3, 2, 1)}, {1, 2, 9, 2, sq(3, 2, 0)}, {1, 3, 5, 1, sq(1, 2, 0)},
	}
}

// TestConvS1MatchesIm2Col holds the plane convolution to im2col +
// MatMulInto bit for bit on every geometry, at every stride, with ±0
// weights and NaN, ±Inf and −0 inputs, one ConvPlane reused across
// every shape (so each change of shape rebuilds the halo and tables,
// and a repeat does not).
func TestConvS1MatchesIm2Col(t *testing.T) {
	rng := NewRNG(0xc5a1)
	var s ConvPlane
	negZero := math.Float32frombits(1 << 31)
	for rep := 0; rep < 2; rep++ {
		for _, sh := range convShapes() {
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
			ConvInto(got, wm, x, g, &s)
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

// TestConvDWAccMatchesIm2Col holds the row-at-a-time weight gradient
// to Im2ColInto + MatMulTBInto + an elementwise add bit for bit,
// accumulated over three samples into one dW on every geometry: ±0
// and NaN/±Inf in the gradient and the input, serially and banded
// over the lowering's rows at 1, 2 and 4 procs with the gate lowered,
// one ConvDWLines reused across every shape.
func TestConvDWAccMatchesIm2Col(t *testing.T) {
	rng := NewRNG(0xd3a1)
	var s ConvDWLines
	pm := matmulParMin
	t.Cleanup(func() { matmulParMin = pm })
	negZero := math.Float32frombits(1 << 31)
	for rep := 0; rep < 2; rep++ {
		for _, sh := range convDXShapes() {
			g := sh.g
			oh, ow := g.OutSize(sh.h, sh.w)
			K, outC, hw := sh.c*g.KH*g.KW, 5, oh*ow
			xs, gs := make([]*Tensor, 3), make([]*Tensor, 3)
			for i := range xs {
				xs[i], gs[i] = New(1, sh.c, sh.h, sh.w), New(outC, hw)
				rng.FillUniform(xs[i], -2, 2)
				rng.FillUniform(gs[i], -2, 2)
				sprinkleZeros(gs[i].Data)
				xs[i].Data[len(xs[i].Data)/3] = negZero
			}
			if rep == 1 {
				xs[1].Data[0] = float32(math.NaN())
				xs[2].Data[len(xs[2].Data)-1] = float32(math.Inf(1))
				gs[0].Data[len(gs[0].Data)/2] = float32(math.Inf(-1))
			}
			init := New(outC, K)
			rng.FillUniform(init, -1, 1)
			matmulParMin = math.MaxInt
			want := init.Clone()
			cols, prod := New(K, hw), New(outC, K)
			for i := range xs {
				Im2ColInto(cols, xs[i], g)
				MatMulTBInto(prod, gs[i], cols)
				for j, v := range prod.Data {
					want.Data[j] += v
				}
			}
			run := func(how string) {
				got := init.Clone()
				for i := range xs {
					ConvDWAcc(got, gs[i], xs[i], g, &s)
				}
				if i := sameBits(want.Data, got.Data); i >= 0 {
					t.Fatalf("rep %d %+v %s: element %d is %v, im2col gives %v", rep, sh, how, i, got.Data[i], want.Data[i])
				}
			}
			run("serial")
			matmulParMin = 1
			for _, procs := range []int{1, 2, 4} {
				withMaxProcs(t, procs, func() { run(fmt.Sprintf("banded at %d procs", procs)) })
			}
		}
	}
}
