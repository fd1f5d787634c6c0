package tensor

import (
	"fmt"

	"ldbnadapt/internal/par"
)

// Parallel gate for the lowering kernels, in output elements. The
// lowering is a strided copy (memory-bound, no MACs), so its
// break-even is higher than the GEMM gate in per-element terms; the
// var is lowered by the bitwise property suite like the GEMM gates.
var lowerParMin = 1 << 17

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

// Im2Col lowers a batched image tensor x with shape [n, c, h, w] into a
// matrix of shape [c*kh*kw, n*oh*ow] so that convolution becomes a
// single matrix product weights[outC, c*kh*kw] · cols.
// Out-of-bounds taps read as zero (zero padding).
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	if x.NDim() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs [n,c,h,w] input, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := g.OutSize(h, w)
	out := New(c*g.KH*g.KW, n*oh*ow)
	Im2ColInto(out, x, g)
	return out
}

// im2colTask is the pooled argument block for Im2ColInto, banded over
// output rows (each row is one (channel, kernel-tap) combination and
// is written by exactly one band).
type im2colTask struct {
	out, x     []float32
	n, c, h, w int
	oh, ow     int
	g          ConvGeom
}

func (t *im2colTask) Chunk(_, lo, hi int) {
	im2colRows(t.out, t.x, t.n, t.c, t.h, t.w, t.oh, t.ow, t.g, lo, hi)
}

var im2colCache par.Cache[im2colTask]

// Im2ColInto is Im2Col writing into a preallocated [c*kh*kw, n*oh*ow]
// matrix, so inference-path callers can reuse the lowering buffer
// across frames instead of allocating one per convolution call. Rows
// are zero-filled only when their kernel tap can read out of bounds
// (zero padding); unpadded geometries overwrite every element, so the
// old full-buffer Zero() pass is skipped entirely.
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
	if rows*cols < lowerParMin {
		im2colRows(out.Data, x.Data, n, c, h, w, oh, ow, g, 0, rows)
		return
	}
	t := im2colCache.Get()
	*t = im2colTask{out: out.Data, x: x.Data, n: n, c: c, h: h, w: w, oh: oh, ow: ow, g: g}
	par.For(rows, 1, t)
	t.out, t.x = nil, nil
	im2colCache.Put(t)
}

// im2colRows fills output rows [rlo,rhi) of the float or int8
// lowering. Row r corresponds to (channel ci, kernel tap ky,kx); column
// corresponds to (image ni, output pixel oy,ox). A row is zero-filled
// only when its tap can read out of bounds; the in-bounds run of each
// output line is one copy when SW == 1.
func im2colRows[T float32 | int8](out, x []T, n, c, h, w, oh, ow int, g ConvGeom, rlo, rhi int) {
	cols := n * oh * ow
	for r := rlo; r < rhi; r++ {
		kx := r % g.KW
		ky := (r / g.KW) % g.KH
		ci := r / (g.KH * g.KW)
		dst := out[r*cols : (r+1)*cols]
		if g.tapOOB(h, w, oh, ow, ky, kx) {
			clear(dst)
		}
		ox0, ox1 := g.oxRange(w, ow, kx)
		if ox0 == ox1 {
			continue // the tap only ever reads padding
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
}

// col2imTask is the pooled argument block for Col2ImInto, banded over
// input channels: destination element (ni,ci,iy,ix) only receives
// scatter-adds from im2col rows of the same channel ci, so channel
// bands own disjoint output and the per-element accumulation order
// (ky,kx,oy,ox-major, exactly the serial loop) is unchanged at any
// worker count.
type col2imTask struct {
	out, cols  []float32
	n, c, h, w int
	oh, ow     int
	g          ConvGeom
}

func (t *col2imTask) Chunk(_, lo, hi int) {
	col2imChans(t.out, t.cols, t.n, t.c, t.h, t.w, t.oh, t.ow, t.g, lo, hi)
}

var col2imCache par.Cache[col2imTask]

// Col2ImInto is the adjoint of Im2Col: it scatters a [c*kh*kw, n*oh*ow]
// matrix back into the preallocated [n, c, h, w] tensor out,
// accumulating where kernel windows overlap. It is the gradient of
// Im2Col and is used by the convolution backward pass. out is zeroed
// first, and the scatter order is the same at any worker count.
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
	if rows*nc < lowerParMin {
		col2imChans(out.Data, cols.Data, n, c, h, w, oh, ow, g, 0, c)
		return
	}
	t := col2imCache.Get()
	*t = col2imTask{out: out.Data, cols: cols.Data, n: n, c: c, h: h, w: w, oh: oh, ow: ow, g: g}
	par.For(c, 1, t)
	t.out, t.cols = nil, nil
	col2imCache.Put(t)
}

// col2imChans zeroes and scatter-accumulates destination channels
// [clo,chi) across all samples.
func col2imChans(out, cols []float32, n, c, h, w, oh, ow int, g ConvGeom, clo, chi int) {
	nc := n * oh * ow
	for ci := clo; ci < chi; ci++ {
		for ni := 0; ni < n; ni++ {
			clear(out[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w])
		}
	}
	for ci := clo; ci < chi; ci++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				r := (ci*g.KH+ky)*g.KW + kx
				src := cols[r*nc : (r+1)*nc]
				ox0, ox1 := g.oxRange(w, ow, kx)
				if ox0 == ox1 {
					continue // the tap only ever reads padding
				}
				for ni := 0; ni < n; ni++ {
					col2imRow(out[(ni*c+ci)*h*w:(ni*c+ci+1)*h*w], src[ni*oh*ow:(ni+1)*oh*ow], h, w, oh, ow, ky, kx, ox0, ox1, g)
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
