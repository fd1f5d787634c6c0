package tensor

import (
	"math"
	"testing"
)

// The lowerings replaced a per-pixel bounds test with a closed-form
// valid range (ConvGeom.oxRange). These tests hold the range to brute
// force and the three kernels to reference copies of the branchy loops
// they replaced, bit for bit.

func TestOxRangeMatchesBruteForce(t *testing.T) {
	empties := 0
	for kw := 1; kw <= 7; kw++ {
		for sw := 1; sw <= kw+2; sw++ { // includes SW > KW
			for pw := 0; pw <= kw+1; pw++ { // includes PW >= KW
				for w := 1; w <= 12; w++ {
					if w+2*pw < kw {
						continue // OutSize would reject it
					}
					g := ConvGeom{KH: 1, KW: kw, SH: 1, SW: sw, PW: pw}
					_, ow := g.OutSize(1, w) // ow == 1 whenever w+2pw-kw < sw
					for kx := 0; kx < kw; kx++ {
						ox0, ox1 := g.oxRange(w, ow, kx)
						if ox0 < 0 || ox0 > ox1 || ox1 > ow {
							t.Fatalf("%+v w=%d kx=%d: range [%d,%d) outside [0,%d]", g, w, kx, ox0, ox1, ow)
						}
						if ox0 == ox1 {
							empties++
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*sw - pw + kx
							valid := ix >= 0 && ix < w
							if inRange := ox >= ox0 && ox < ox1; valid != inRange {
								t.Fatalf("%+v w=%d ow=%d kx=%d: ox=%d (ix=%d) valid=%v but range is [%d,%d)",
									g, w, ow, kx, ox, ix, valid, ox0, ox1)
							}
						}
					}
				}
			}
		}
	}
	if empties == 0 {
		t.Fatal("grid never produced an empty range")
	}
}

type lowerShape = struct {
	n, c, h, w int
	g          ConvGeom
}

// lowerTestShapes are the conv geometries of the models (3×3 s1 p1,
// 3×3 s2 p1, the 7×7 s2 p3 stem, 1×1 s1/s2 p0 shortcuts) at n ∈ {1,3},
// an asymmetric 5×3 with different strides, and one whose padding
// exceeds the kernel so some taps only ever read padding.
func lowerTestShapes() []lowerShape {
	geoms := []struct {
		c, h, w int
		g       ConvGeom
	}{
		{3, 9, 40, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}},
		{2, 9, 21, ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}},
		{3, 18, 37, ConvGeom{KH: 7, KW: 7, SH: 2, SW: 2, PH: 3, PW: 3}},
		{4, 6, 10, ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1}},
		{4, 7, 11, ConvGeom{KH: 1, KW: 1, SH: 2, SW: 2}},
		{2, 11, 13, ConvGeom{KH: 5, KW: 3, SH: 3, SW: 2, PH: 2, PW: 1}},
		{1, 4, 3, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 4}},
	}
	var shapes []lowerShape
	for _, n := range []int{1, 3} {
		for _, s := range geoms {
			shapes = append(shapes, lowerShape{n, s.c, s.h, s.w, s.g})
		}
	}
	return shapes
}

// refIm2Col is the lowering loop as it stood before oxRange: one
// bounds test per output pixel, rows cleared only when tapOOB.
func refIm2Col[T float32 | int8](out, x []T, n, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	cols := n * oh * ow
	for r := 0; r < c*g.KH*g.KW; r++ {
		kx := r % g.KW
		ky := (r / g.KW) % g.KH
		ci := r / (g.KH * g.KW)
		dst := out[r*cols : (r+1)*cols]
		if g.tapOOB(h, w, oh, ow, ky, kx) {
			clear(dst)
		}
		for ni := 0; ni < n; ni++ {
			src := x[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				iy := oy*g.SH - g.PH + ky
				if iy < 0 || iy >= h {
					continue
				}
				for ox := 0; ox < ow; ox++ {
					if ix := ox*g.SW - g.PW + kx; ix >= 0 && ix < w {
						dst[(ni*oh+oy)*ow+ox] = src[iy*w+ix]
					}
				}
			}
		}
	}
}

// refCol2Im is the scatter loop as it stood before oxRange, in the
// (ci, ky, kx, ni, oy, ox) order that fixes every element's sum.
func refCol2Im(out, cols []float32, n, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	nc := n * oh * ow
	clear(out)
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				src := cols[((ci*g.KH+ky)*g.KW+kx)*nc:]
				for ni := 0; ni < n; ni++ {
					dst := out[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.SH - g.PH + ky
						if iy < 0 || iy >= h {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							if ix := ox*g.SW - g.PW + kx; ix >= 0 && ix < w {
								dst[iy*w+ix] += src[(ni*oh+oy)*ow+ox]
							}
						}
					}
				}
			}
		}
	}
}

func TestIm2ColMatchesReferenceLoop(t *testing.T) {
	rng := NewRNG(0x10e1)
	nan := float32(math.NaN())
	for _, sh := range lowerTestShapes() {
		x := New(sh.n, sh.c, sh.h, sh.w)
		rng.FillUniform(x, -3, 3)
		oh, ow := sh.g.OutSize(sh.h, sh.w)
		rows, cols := sh.c*sh.g.KH*sh.g.KW, sh.n*oh*ow
		// Both sides start from NaN: rows are cleared only when their tap
		// can read padding, so every other element must be overwritten.
		want, got := Full(nan, rows, cols), Full(nan, rows, cols)
		refIm2Col(want.Data, x.Data, sh.n, sh.c, sh.h, sh.w, sh.g)
		Im2ColInto(got, x, sh.g)
		if i := bitsEqual(want.Data, got.Data); i >= 0 {
			t.Fatalf("Im2Col %+v: element %d is %v, reference loop gives %v", sh, i, got.Data[i], want.Data[i])
		}
		if got.HasNaN() {
			t.Fatalf("Im2Col %+v: destination poison survived", sh)
		}
	}
}

func TestCol2ImMatchesReferenceLoop(t *testing.T) {
	rng := NewRNG(0xc0e1)
	nan := float32(math.NaN())
	for _, sh := range lowerTestShapes() {
		oh, ow := sh.g.OutSize(sh.h, sh.w)
		cols := New(sh.c*sh.g.KH*sh.g.KW, sh.n*oh*ow)
		rng.FillUniform(cols, -3, 3)
		want := New(sh.n, sh.c, sh.h, sh.w)
		got := Full(nan, sh.n, sh.c, sh.h, sh.w)
		refCol2Im(want.Data, cols.Data, sh.n, sh.c, sh.h, sh.w, sh.g)
		Col2ImInto(got, cols, sh.g)
		if i := bitsEqual(want.Data, got.Data); i >= 0 {
			t.Fatalf("Col2Im %+v: element %d is %v, reference loop gives %v", sh, i, got.Data[i], want.Data[i])
		}
	}
}
