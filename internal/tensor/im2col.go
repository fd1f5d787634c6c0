package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution: kernel size,
// stride and symmetric zero padding. It is shared by the convolution
// layer, the pooling layers and the FLOPs model.
type ConvGeom struct {
	KH, KW int // kernel height and width
	SH, SW int // stride
	PH, PW int // zero padding (applied symmetrically)
}

// OutSize returns the output spatial size for an input of size (h, w).
// It panics if the geometry does not fit the input.
func (g ConvGeom) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*g.PH-g.KH)/g.SH + 1
	ow = (w+2*g.PW-g.KW)/g.SW + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v does not fit input %dx%d", g, h, w))
	}
	return oh, ow
}

// tapOOB reports whether kernel tap (ky,kx) reads out of bounds for
// any output position — i.e. whether the corresponding im2col row has
// padding-supplied zeros. With no padding every tap is in bounds for
// every position (OutSize guarantees it), so unpadded lowerings skip
// zero-filling entirely: every element of the row is overwritten.
func (g ConvGeom) tapOOB(h, w, oh, ow, ky, kx int) bool {
	return ky-g.PH < 0 || (oh-1)*g.SH+ky-g.PH >= h ||
		kx-g.PW < 0 || (ow-1)*g.SW+kx-g.PW >= w
}

// oxRange returns the half-open range [ox0,ox1) of output columns
// whose kernel tap kx reads inside the input row, i.e. those with
// 0 <= ox*SW-PW+kx < w. The lowerings compute it once per tap and run
// the range without a per-pixel bounds test; columns outside it are
// the padding zeros. The range is empty (ox0 == ox1) when the tap
// never lands inside.
func (g ConvGeom) oxRange(w, ow, kx int) (ox0, ox1 int) {
	if lead := g.PW - kx; lead > 0 {
		ox0 = (lead + g.SW - 1) / g.SW
	}
	if last := w - 1 + g.PW - kx; last >= 0 {
		ox1 = min(last/g.SW+1, ow)
	}
	return min(ox0, ox1), ox1
}

// Im2ColInto lowers a batched image tensor x with shape [n, c, h, w]
// into a preallocated matrix of shape [c*kh*kw, n*oh*ow], so that
// convolution becomes a single matrix product weights[outC, c*kh*kw] ·
// cols. Out-of-bounds taps read as zero (zero padding). Rows
// are zero-filled only when their kernel tap can read out of bounds
// (zero padding); unpadded geometries overwrite every element, so the
// old full-buffer Zero() pass is skipped entirely. It runs serially:
// no layer calls it (ConvInto reads the padded planes, and ConvDWAcc
// lowers four rows at a time through im2colRow); it is the reference
// those kernels are tested against and a probe the benchmark times.
func Im2ColInto(out, x *Tensor, g ConvGeom) {
	if x.NDim() != 4 {
		panic(fmt.Sprintf("tensor: Im2ColInto needs [n,c,h,w] input, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := g.OutSize(h, w)
	rows := c * g.KH * g.KW
	cols := n * oh * ow
	if out.NDim() != 2 || out.shape[0] != rows || out.shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2ColInto dst %v, want [%d,%d]", out.shape, rows, cols))
	}
	im2colRows(out.Data, x.Data, n, c, h, w, oh, ow, g, 0, rows)
}

// im2colRows fills output rows [rlo,rhi) of the lowering, each of
// n·oh·ow columns.
func im2colRows(out, x []float32, n, c, h, w, oh, ow int, g ConvGeom, rlo, rhi int) {
	cols := n * oh * ow
	for r := rlo; r < rhi; r++ {
		im2colRow(out[r*cols:(r+1)*cols], x, n, c, h, w, oh, ow, g, r)
	}
}

// im2colRow fills row r of the lowering, dst [n·oh·ow]. Row r
// corresponds to (channel ci, kernel tap ky,kx); column corresponds to
// (image ni, output pixel oy,ox). The row is zero-filled only when its
// tap can read out of bounds, so every other element is overwritten;
// the in-bounds run of each output line is one copy when SW == 1.
func im2colRow(dst, x []float32, n, c, h, w, oh, ow int, g ConvGeom, r int) {
	kx := r % g.KW
	ky := (r / g.KW) % g.KH
	ci := r / (g.KH * g.KW)
	if g.tapOOB(h, w, oh, ow, ky, kx) {
		clear(dst)
	}
	ox0, ox1 := g.oxRange(w, ow, kx)
	if ox0 == ox1 {
		return // the tap only ever reads padding
	}
	ix0 := ox0*g.SW - g.PW + kx
	for ni := 0; ni < n; ni++ {
		src := x[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
		base := ni * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy := oy*g.SH - g.PH + ky
			if iy < 0 || iy >= h {
				continue // leave zeros
			}
			rowSrc := src[iy*w : (iy+1)*w]
			run := dst[base+oy*ow+ox0 : base+oy*ow+ox1]
			if g.SW == 1 {
				copy(run, rowSrc[ix0:ix0+len(run)])
				continue
			}
			ix := ix0
			for i := range run {
				run[i] = rowSrc[ix]
				ix += g.SW
			}
		}
	}
}

// Col2ImInto is the adjoint of Im2ColInto: it scatters a [c*kh*kw, n*oh*ow]
// matrix back into the preallocated [n, c, h, w] tensor out,
// accumulating where kernel windows overlap. out is zeroed first.
// It runs serially: it is ConvDXInto's reference, which fuses it with
// the product before it, and a probe the benchmark times.
func Col2ImInto(out, cols *Tensor, g ConvGeom) {
	if out.NDim() != 4 {
		panic(fmt.Sprintf("tensor: Col2ImInto needs [n,c,h,w] dst, got %v", out.shape))
	}
	n, c, h, w := out.shape[0], out.shape[1], out.shape[2], out.shape[3]
	oh, ow := g.OutSize(h, w)
	rows := c * g.KH * g.KW
	nc := n * oh * ow
	if cols.NDim() != 2 || cols.shape[0] != rows || cols.shape[1] != nc {
		panic(fmt.Sprintf("tensor: Col2ImInto got %v, want [%d,%d]", cols.shape, rows, nc))
	}
	clear(out.Data)
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				r := (ci*g.KH+ky)*g.KW + kx
				src := cols.Data[r*nc : (r+1)*nc]
				ox0, ox1 := g.oxRange(w, ow, kx)
				if ox0 == ox1 {
					continue // the tap only ever reads padding
				}
				for ni := 0; ni < n; ni++ {
					col2imRow(out.Data[(ni*c+ci)*h*w:(ni*c+ci+1)*h*w], src[ni*oh*ow:(ni+1)*oh*ow], h, w, oh, ow, ky, kx, ox0, ox1, g)
				}
			}
		}
	}
}

// col2imRow adds one sample's part of the column row of tap (ky,kx),
// src [oh·ow], into its channel plane dst [h·w]: output columns
// [ox0,ox1) of each line whose input row is inside, in (oy, ox) order.
func col2imRow(dst, src []float32, h, w, oh, ow, ky, kx, ox0, ox1 int, g ConvGeom) {
	ix0 := ox0*g.SW - g.PW + kx
	for oy := 0; oy < oh; oy++ {
		iy := oy*g.SH - g.PH + ky
		if iy < 0 || iy >= h {
			continue
		}
		dstRow := dst[iy*w : (iy+1)*w]
		run := src[oy*ow+ox0 : oy*ow+ox1]
		if g.SW == 1 {
			addRow(dstRow[ix0:ix0+len(run)], run)
			continue
		}
		ix := ix0
		for _, v := range run {
			dstRow[ix] += v
			ix += g.SW
		}
	}
}

// addRowGo computes dst += src elementwise: the SW == 1 scatter run
// of col2im, and the spec the assembly mirrors.
func addRowGo(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}
