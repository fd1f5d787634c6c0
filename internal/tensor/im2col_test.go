package tensor

import (
	"math"
	"testing"
)

func TestConvGeomOutSize(t *testing.T) {
	g := ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	oh, ow := g.OutSize(8, 10)
	if oh != 8 || ow != 10 {
		t.Fatalf("same-pad 3x3: got %dx%d", oh, ow)
	}
	g = ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}
	oh, ow = g.OutSize(8, 10)
	if oh != 4 || ow != 5 {
		t.Fatalf("stride-2: got %dx%d", oh, ow)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("impossible geometry did not panic")
		}
	}()
	ConvGeom{KH: 9, KW: 9, SH: 1, SW: 1}.OutSize(4, 4)
}

// naiveConv computes a direct convolution for cross-checking the
// im2col+matmul path.
func naiveConv(x, w *Tensor, g ConvGeom) *Tensor {
	n, c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outC := w.Dim(0)
	oh, ow := g.OutSize(h, wd)
	out := New(n, outC, oh, ow)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ci := 0; ci < c; ci++ {
						for ky := 0; ky < g.KH; ky++ {
							for kx := 0; kx < g.KW; kx++ {
								iy := oy*g.SH - g.PH + ky
								ix := ox*g.SW - g.PW + kx
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								s += float64(x.At(ni, ci, iy, ix)) * float64(w.At(oc, ci, ky, kx))
							}
						}
					}
					out.Set(float32(s), ni, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	rng := NewRNG(21)
	cases := []struct {
		n, c, h, w, outC int
		g                ConvGeom
	}{
		{1, 1, 5, 5, 1, ConvGeom{3, 3, 1, 1, 1, 1}},
		{2, 3, 8, 6, 4, ConvGeom{3, 3, 1, 1, 1, 1}},
		{2, 3, 9, 7, 5, ConvGeom{3, 3, 2, 2, 1, 1}},
		{1, 2, 6, 6, 3, ConvGeom{1, 1, 1, 1, 0, 0}},
		{1, 2, 7, 9, 3, ConvGeom{5, 3, 2, 1, 2, 1}},
	}
	for i, tc := range cases {
		x := New(tc.n, tc.c, tc.h, tc.w)
		w := New(tc.outC, tc.c, tc.g.KH, tc.g.KW)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(w, 0, 1)
		oh, ow := tc.g.OutSize(tc.h, tc.w)
		cols := New(tc.c*tc.g.KH*tc.g.KW, tc.n*oh*ow)
		Im2ColInto(cols, x, tc.g)
		wm := FromSlice(w.Data, tc.outC, tc.c*tc.g.KH*tc.g.KW)
		prod := MatMul(wm, cols) // [outC, n*oh*ow]
		// Rearrange [outC, n, oh*ow] → [n, outC, oh, ow].
		got := New(tc.n, tc.outC, oh, ow)
		for oc := 0; oc < tc.outC; oc++ {
			for ni := 0; ni < tc.n; ni++ {
				src := prod.Data[(oc*tc.n+ni)*oh*ow : (oc*tc.n+ni+1)*oh*ow]
				dst := got.Data[(ni*tc.outC+oc)*oh*ow : (ni*tc.outC+oc+1)*oh*ow]
				copy(dst, src)
			}
		}
		want := naiveConv(x, w, tc.g)
		if !got.AllClose(want, 1e-3) {
			t.Fatalf("case %d: im2col conv mismatch", i)
		}
	}
}

// TestCol2ImAdjoint verifies the defining adjoint property
// <Im2Col(x), y> == <x, Col2Im(y)> which makes Col2Im the correct
// gradient of Im2Col (the lowering Im2ColInto writes).
func TestCol2ImAdjoint(t *testing.T) {
	rng := NewRNG(22)
	g := ConvGeom{KH: 3, KW: 3, SH: 2, SW: 1, PH: 1, PW: 1}
	n, c, h, w := 2, 3, 7, 6
	x := New(n, c, h, w)
	rng.FillNormal(x, 0, 1)
	oh, ow := g.OutSize(h, w)
	cols := New(c*g.KH*g.KW, n*oh*ow)
	Im2ColInto(cols, x, g)
	y := New(cols.Dim(0), cols.Dim(1))
	rng.FillNormal(y, 0, 1)
	lhs := Dot(cols, y)
	rhs := Dot(x, Col2Im(y, n, c, h, w, g))
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint violated: %v vs %v", lhs, rhs)
	}
}

func TestIm2ColShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 3-D input")
		}
	}()
	Im2ColInto(New(2, 3), New(1, 2, 3), ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1})
}

func TestCol2ImShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong cols shape")
		}
	}()
	Col2Im(New(2, 2), 1, 1, 4, 4, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1})
}
