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

// convCase is one forward geometry and its output channel count.
type convCase struct {
	sh   lowerShape
	outC int
}

// convCases are convShapes at 5 output channels, then 32 channels over
// a 4×48×120 input at 3×3/p1 strides 1 and 2.
func convCases() []convCase {
	var cases []convCase
	for _, sh := range convShapes() {
		cases = append(cases, convCase{sh, 5})
	}
	return append(cases,
		convCase{lowerShape{1, 4, 48, 120, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}}, 32},
		convCase{lowerShape{1, 4, 48, 120, ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}}, 32})
}

// TestConvS1MatchesIm2Col holds the plane convolution to im2col +
// MatMulInto bit for bit on every geometry, at every stride, with ±0
// weights and NaN, ±Inf and −0 inputs, serially and banded over output
// channels at 1, 2 and 4 procs with the gate lowered, one ConvPlane
// reused across every shape (so each change of shape rebuilds the halo
// and tables, and a repeat does not). Every geometry runs 5 output
// channels; the last two cases run 32 over a 48×120 input at strides 1
// and 2, so that each band computes long enough for the bands to
// overlap in time and a band reading or writing another's grid row
// shows in a plain run.
func TestConvS1MatchesIm2Col(t *testing.T) {
	rng := NewRNG(0xc5a1)
	var s ConvPlane
	pm := matmulParMin
	t.Cleanup(func() { matmulParMin = pm })
	negZero := math.Float32frombits(1 << 31)
	for rep := 0; rep < 2; rep++ {
		for _, cc := range convCases() {
			sh, outC := cc.sh, cc.outC
			g := sh.g
			oh, ow := g.OutSize(sh.h, sh.w)
			K := sh.c * g.KH * g.KW
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
			matmulParMin = math.MaxInt
			cols := New(K, oh*ow)
			Im2ColInto(cols, x, g)
			want := New(outC, oh*ow)
			MatMulInto(want, wm, cols)
			run := func(how string) {
				got := Full(float32(math.NaN()), outC, oh*ow)
				ConvInto(got, wm, x, g, &s)
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

// TestConvInt8MatchesIm2Col holds the int8 plane convolution to an int8
// im2col lowering (refIm2Col) followed by Int8MatMulInto, bit for bit,
// on every forward geometry, serially and banded over output channels
// at 1, 2 and 4 procs with the gate lowered. The weights hold zero
// pairs and odd inner dimensions (the kernel's pair skip and its last
// single coefficient); the second pass runs every value at ±127, the
// largest int32 sums. One ConvPlane is reused across every shape and
// across precisions: a float ConvInto, held to im2col too, runs on it
// between the serial and the banded int8 calls, so a plane of either
// precision left stale by a change of shape shows.
func TestConvInt8MatchesIm2Col(t *testing.T) {
	rng := NewRNG(0x18c0)
	var s ConvPlane
	pm := matmulParMin
	t.Cleanup(func() { matmulParMin = pm })
	q := func(extreme bool) int8 {
		if extreme {
			return int8(127 - 254*rng.Intn(2))
		}
		return int8(rng.Intn(255) - 127)
	}
	for rep := 0; rep < 2; rep++ {
		for _, cc := range convCases() {
			sh, outC := cc.sh, cc.outC
			g := sh.g
			oh, ow := g.OutSize(sh.h, sh.w)
			K, hw := sh.c*g.KH*g.KW, oh*ow
			xq, wq := make([]int8, sh.c*sh.h*sh.w), make([]int8, outC*K)
			for i := range xq {
				xq[i] = q(rep == 1)
			}
			for i := range wq {
				if wq[i] = q(rep == 1); i%7 < 2 {
					wq[i] = 0
				}
			}
			ws := make([]float32, outC)
			for i := range ws {
				ws[i] = float32(rng.Float64()) + 0.01
			}
			xs := float32(rng.Float64()) + 0.01
			matmulParMin = math.MaxInt
			cols := make([]int8, K*hw)
			refIm2Col(cols, xq, 1, sh.c, sh.h, sh.w, g)
			want := New(outC, hw)
			Int8MatMulInto(want, wq, ws, cols, xs, outC, K, hw)
			run := func(how string) {
				got := Full(float32(math.NaN()), outC, hw)
				ConvInt8Into(got, wq, ws, xq, xs, sh.c, sh.h, sh.w, g, &s)
				if i := sameBits(want.Data, got.Data); i >= 0 {
					t.Fatalf("rep %d %+v %s: element %d is %v, int8 im2col gives %v", rep, sh, how, i, got.Data[i], want.Data[i])
				}
			}
			run("serial")
			x, wm := New(1, sh.c, sh.h, sh.w), New(outC, K)
			rng.FillUniform(x, -2, 2)
			rng.FillUniform(wm, -2, 2)
			fcols := New(K, hw)
			Im2ColInto(fcols, x, g)
			fwant, fgot := New(outC, hw), Full(float32(math.NaN()), outC, hw)
			MatMulInto(fwant, wm, fcols)
			ConvInto(fgot, wm, x, g, &s)
			if i := sameBits(fwant.Data, fgot.Data); i >= 0 {
				t.Fatalf("rep %d %+v float between int8 calls: element %d is %v, im2col gives %v", rep, sh, i, fgot.Data[i], fwant.Data[i])
			}
			matmulParMin = 1
			for _, procs := range []int{1, 2, 4} {
				withMaxProcs(t, procs, func() { run(fmt.Sprintf("banded at %d procs", procs)) })
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
	pm := matmulParMin
	t.Cleanup(func() { matmulParMin = pm })
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
			matmulParMin = math.MaxInt
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

// TestConvDWAccMatchesIm2Col holds the lane weight gradient to
// Im2ColInto + MatMulTBInto + an elementwise add bit for bit,
// accumulated over three samples into one dW on every geometry at
// outC 5, 6, 12, 13 and 24 (none a whole number of 16-lane blocks, and
// all but 24 ragged at 8): ±0 and NaN/±Inf in the gradient and the
// input, serially and banded over the lowering's rows at 1, 2 and 4
// procs with the gate lowered, one ConvDWLines reused across every
// shape.
func TestConvDWAccMatchesIm2Col(t *testing.T) {
	rng := NewRNG(0xd3a1)
	var s ConvDWLines
	pm := matmulParMin
	t.Cleanup(func() { matmulParMin = pm })
	for rep := 0; rep < 2; rep++ {
		for _, sh := range convDXShapes() {
			for _, outC := range []int{5, 6, 12, 13, 24} {
				checkConvDWAcc(t, rng, &s, sh, outC, rep == 1)
			}
		}
	}
}

// checkConvDWAcc is one case of TestConvDWAccMatchesIm2Col; nonFinite
// adds the NaN and ±Inf operands.
func checkConvDWAcc(t *testing.T, rng *RNG, s *ConvDWLines, sh lowerShape, outC int, nonFinite bool) {
	g := sh.g
	oh, ow := g.OutSize(sh.h, sh.w)
	K, hw := sh.c*g.KH*g.KW, oh*ow
	xs, gs := make([]*Tensor, 3), make([]*Tensor, 3)
	for i := range xs {
		xs[i], gs[i] = New(1, sh.c, sh.h, sh.w), New(outC, hw)
		rng.FillUniform(xs[i], -2, 2)
		rng.FillUniform(gs[i], -2, 2)
		sprinkleZeros(gs[i].Data)
		xs[i].Data[len(xs[i].Data)/3] = math.Float32frombits(1 << 31) // −0
	}
	if nonFinite {
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
			ConvDWAcc(got, gs[i], xs[i], g, s)
		}
		if i := sameBits(want.Data, got.Data); i >= 0 {
			t.Fatalf("%+v outC %d non-finite %v %s: element %d is %v, im2col gives %v", sh, outC, nonFinite, how, i, got.Data[i], want.Data[i])
		}
	}
	run("serial")
	matmulParMin = 1
	for _, procs := range []int{1, 2, 4} {
		withMaxProcs(t, procs, func() { run(fmt.Sprintf("banded at %d procs", procs)) })
	}
}

// TestConvDWLanesMatchesGo holds the weight gradient's lane kernel to
// dotUnroll4, the dot product MatMulTBInto takes: the Go twin, then
// each assembly tier (AVX2 alone, and with the AVX-512 tier's 16-lane
// prefix). Every outC in 1..17, 24 and 48 is rounded up to whole
// 8-lane blocks as ConvDWAcc rounds it, so each mix of ZMM blocks, a
// YMM block and zero padding lanes occurs; every hw in 1..9 (each
// remainder mod 4, with and without whole groups), 37 and 360;
// 1..6 rows per call (a four-row pass, then single rows); ±0 runs and
// NaN, ±Inf and −0 in both the gradient and the rows. Padding lanes
// are written but not compared; nothing outside acc is written.
func TestConvDWLanesMatchesGo(t *testing.T) {
	t.Run("go", func(t *testing.T) { checkDWLanes(t, dwLanesGo) })
	eachTier(t, func(t *testing.T) { checkDWLanes(t, dwLanes) })
}

func checkDWLanes(t *testing.T, lanes func(acc, gt, lines []float32, hw, L, nr int)) {
	rng := NewRNG(0xd1a5)
	negZero := math.Float32frombits(1 << 31)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), negZero, 0}
	outCs := []int{24, 48}
	for outC := 1; outC <= 17; outC++ {
		outCs = append(outCs, outC)
	}
	hws := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 360}
	nans, total, cases := 0, 0, 0
	for _, outC := range outCs {
		L := (outC + 7) &^ 7
		for _, hw := range hws {
			for nr := 1; nr <= 6; nr++ {
				cases++
				g := make([]float32, outC*hw)
				lines := make([]float32, nr*hw)
				for i := range g {
					g[i] = float32(rng.Range(-2, 2))
				}
				for i := range lines {
					lines[i] = float32(rng.Range(-2, 2))
				}
				sprinkleZeros(g)
				sprinkleZeros(lines)
				if cases%3 != 0 {
					g[(7*cases)%len(g)] = specials[cases%len(specials)]
					lines[(5*cases)%len(lines)] = specials[(cases/3)%len(specials)]
				}
				gt := make([]float32, hw*L)
				for oc := 0; oc < outC; oc++ {
					for j := 0; j < hw; j++ {
						gt[j*L+oc] = g[oc*hw+j]
					}
				}
				want := make([]float32, nr*outC)
				for r := 0; r < nr; r++ {
					for oc := 0; oc < outC; oc++ {
						want[r*outC+oc] = dotUnroll4(g[oc*hw:(oc+1)*hw], lines[r*hw:(r+1)*hw], hw)
					}
				}
				got, intact := framed(cases%8, nr*L)
				lanes(got.Data, gt, lines, hw, L, nr)
				for r := 0; r < nr; r++ {
					if i := sameBits(want[r*outC:(r+1)*outC], got.Data[r*L:r*L+outC]); i >= 0 {
						t.Fatalf("outC=%d hw=%d nr=%d: row %d lane %d is %v, dotUnroll4 gives %v",
							outC, hw, nr, r, i, got.Data[r*L+i], want[r*outC+i])
					}
				}
				if !intact() {
					t.Fatalf("outC=%d hw=%d nr=%d: wrote outside acc", outC, hw, nr)
				}
				for _, v := range want {
					if v != v {
						nans++
					}
				}
				total += len(want)
			}
		}
	}
	if nans == 0 || nans == total {
		t.Fatalf("fixture is not discriminating: %d of %d chains are NaN", nans, total)
	}
}
