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
