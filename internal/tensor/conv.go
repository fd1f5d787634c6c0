package tensor

import (
	"fmt"

	"ldbnadapt/internal/par"
)

// ConvPlane is the reusable state of ConvS1Into for one caller: the
// zero-padded input plane, the offset table into it and one output
// channel's row over the padded-width grid. The halo and the table
// depend only on the input shape and geometry, so they are built when
// that changes and reused otherwise; a steady-state call allocates
// nothing. A ConvPlane must not be shared by concurrent calls.
type ConvPlane struct {
	plane   []float32 // [c, h+2PH, w+2PW], then zero slack; only the interior is rewritten per call
	off     []int     // off[(ci·KH+ky)·KW+kx] = ci·Hp·Wp + ky·Wp + kx
	row     []float32 // one channel over the grid, in whole row-kernel tiles
	direct  bool      // unpadded and one column wide (a 1×1): x is the grid, no plane or row
	c, h, w int
	g       ConvGeom
}

// convTile is the row kernel's widest column tile. Four independent
// accumulator chains advance per coefficient in it, against one in the
// 8-wide tile and the scalar tail, so a whole tile costs what one
// 8-wide step does and the grid is rounded up to whole tiles.
const convTile = 32

// ConvS1Into computes one sample's stride-1 convolution, out = wm ⊛ x,
// reading x through a padded plane instead of an im2col slab. x is
// [1, c, h, w], wm is the [outC, c·KH·KW] weight matrix and out is
// [outC, oh·ow]. The result is bitwise Im2ColInto followed by
// MatMulInto: output (oc, oy, ox) accumulates wm[oc, p] times the
// lowering's element (p, oy·ow+ox) in increasing p from +0 with ±0
// weights skipped, and the plane holds that element at
// off[p] + oy·Wp + ox, the halo's +0 where the lowering zero-fills.
//
// Each output channel is one gemmRowOff call over the padded-width
// grid, positions oy·Wp + ox for ox < Wp, so every row of the product
// is a contiguous run of the plane; the Wp − ow columns per line that
// straddle the halo, and the grid's round-up to whole 32-column tiles
// (read from zero slack after the plane's last channel), are computed
// and dropped when the ow valid columns of each line are copied out.
// An unpadded conv one column wide, a 1×1 (no halo, Wp == ow), reads x
// itself and writes its rows straight into out. It runs serially on the caller.
func ConvS1Into(out, wm, x *Tensor, g ConvGeom, s *ConvPlane) {
	if g.SH != 1 || g.SW != 1 {
		panic(fmt.Sprintf("tensor: ConvS1Into needs stride 1, got %+v", g))
	}
	if x.NDim() != 4 || x.shape[0] != 1 {
		panic(fmt.Sprintf("tensor: ConvS1Into needs one [1,c,h,w] sample, got %v", x.shape))
	}
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	oh, ow := g.OutSize(h, w)
	K, hw := c*g.KH*g.KW, oh*ow
	if wm.NDim() != 2 || wm.shape[1] != K || out.NDim() != 2 || out.shape[0] != wm.shape[0] || out.shape[1] != hw {
		panic(fmt.Sprintf("tensor: ConvS1Into %v = %v ⊛ %v, want [m,%d] weights and a [m,%d] dst", out.shape, wm.shape, x.shape, K, hw))
	}
	s.reshape(c, h, w, g)
	if s.direct {
		for oc := 0; oc < out.shape[0]; oc++ {
			gemmRowOff(out.Data[oc*hw:(oc+1)*hw], wm.Data[oc*K:(oc+1)*K], s.off, x.Data)
		}
		return
	}
	hp, wp := h+2*g.PH, w+2*g.PW
	for ci := 0; ci < c; ci++ {
		for iy := 0; iy < h; iy++ {
			at := (ci*hp+iy+g.PH)*wp + g.PW
			copy(s.plane[at:at+w], x.Data[(ci*h+iy)*w:(ci*h+iy+1)*w])
		}
	}
	for oc := 0; oc < out.shape[0]; oc++ {
		gemmRowOff(s.row, wm.Data[oc*K:(oc+1)*K], s.off, s.plane)
		dst := out.Data[oc*hw : (oc+1)*hw]
		for oy := 0; oy < oh; oy++ {
			copy(dst[oy*ow:(oy+1)*ow], s.row[oy*wp:oy*wp+ow])
		}
	}
}

// reshape rebuilds the halo, the offset table and the row buffer when
// the input shape or geometry differs from the last call's.
func (s *ConvPlane) reshape(c, h, w int, g ConvGeom) {
	if s.off != nil && s.c == c && s.h == h && s.w == w && s.g == g {
		return
	}
	s.c, s.h, s.w, s.g = c, h, w, g
	hp, wp := h+2*g.PH, w+2*g.PW
	s.direct = g.KW == 1 && g.PH == 0 && g.PW == 0
	if !s.direct {
		oh, ow := g.OutSize(h, w)
		grid := (oh-1)*wp + ow // its last read is the plane's last element
		cols := (grid + convTile - 1) / convTile * convTile
		s.row = resize(s.row, cols)
		s.plane = resize(s.plane, c*hp*wp+cols-grid)
		clear(s.plane)
	}
	if cap(s.off) < c*g.KH*g.KW {
		s.off = make([]int, c*g.KH*g.KW)
	}
	s.off = s.off[:c*g.KH*g.KW]
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				s.off[(ci*g.KH+ky)*g.KW+kx] = ci*hp*wp + ky*wp + kx
			}
		}
	}
}

// ConvDXLines is the reusable state of ConvDXInto for one caller: one
// line per band and the gradient's partial last tile. Both are grown to
// the largest call seen and reused, so a steady-state call allocates
// nothing. A ConvDXLines must not be shared by concurrent calls.
type ConvDXLines struct {
	lines []float32 // band b's line is lines[b·cols : (b+1)·cols]
	tail  []float32 // [outC, convTile]: g's last oh·ow mod 32 columns, then zeros
}

// convDXTask is the pooled argument block for ConvDXInto, banded over
// input channels like Col2ImInto.
type convDXTask struct {
	dx, wt, g, tail, lines []float32
	cols                   int
	outC, c, h, w          int
	oh, ow                 int
	geom                   ConvGeom
}

func (t *convDXTask) Chunk(band, lo, hi int) {
	convDXChans(t.dx, t.wt, t.g, t.tail, t.lines[band*t.cols:(band+1)*t.cols], t.outC, t.c, t.h, t.w, t.oh, t.ow, t.geom, lo, hi)
}

var convDXCache par.Cache[convDXTask]

// ConvDXInto computes one sample's convolution input gradient,
// dx = col2im(wt·g), without the K × oh·ow column matrix between the
// two. dx is [1, c, h, w], wt is the transposed weight matrix
// [c·KH·KW, outC] and g is the output gradient [outC, oh·ow]; any
// stride and padding. The result is bitwise MatMulInto followed by
// Col2ImInto: each input channel is cleared, then for each tap (ky,kx)
// in col2im's order the column row r = (ci,ky,kx) is computed by the
// same row kernel into a line and its valid runs are added into the
// channel at once, in the same order. A tap that only ever reads
// padding is skipped, as col2im skips its row.
//
// The line is rounded up to whole 32-column tiles. The tiles inside
// oh·ow read g in place; a partial last tile reads a [outC, 32] copy
// of g's last columns with zeros after them, so its columns past oh·ow
// are computed and dropped and g needs no slack. No padded gradient
// plane is read: an Inf weight times a halo zero would add a NaN that
// col2im never adds. Input channels are banded over the worker pool
// behind the GEMM gate.
func ConvDXInto(dx, wt, g *Tensor, geom ConvGeom, s *ConvDXLines) {
	if dx.NDim() != 4 || dx.shape[0] != 1 {
		panic(fmt.Sprintf("tensor: ConvDXInto needs one [1,c,h,w] sample, got %v", dx.shape))
	}
	c, h, w := dx.shape[1], dx.shape[2], dx.shape[3]
	oh, ow := geom.OutSize(h, w)
	K, hw := c*geom.KH*geom.KW, oh*ow
	if wt.NDim() != 2 || wt.shape[0] != K || g.NDim() != 2 || g.shape[0] != wt.shape[1] || g.shape[1] != hw {
		panic(fmt.Sprintf("tensor: ConvDXInto %v = col2im(%v · %v), want [%d,m] weights and an [m,%d] gradient", dx.shape, wt.shape, g.shape, K, hw))
	}
	outC := wt.shape[1]
	cols := (hw + convTile - 1) / convTile * convTile
	var tail []float32
	if body := hw / convTile * convTile; body < hw {
		s.tail = resize(s.tail, outC*convTile)
		clear(s.tail)
		for p := 0; p < outC; p++ {
			copy(s.tail[p*convTile:], g.Data[p*hw+body:(p+1)*hw])
		}
		tail = s.tail
	}
	if K*outC*hw < matmulParMin {
		s.lines = resize(s.lines, cols)
		convDXChans(dx.Data, wt.Data, g.Data, tail, s.lines, outC, c, h, w, oh, ow, geom, 0, c)
		return
	}
	s.lines = resize(s.lines, par.Width(c, 1)*cols)
	t := convDXCache.Get()
	*t = convDXTask{dx: dx.Data, wt: wt.Data, g: g.Data, tail: tail, lines: s.lines, cols: cols,
		outC: outC, c: c, h: h, w: w, oh: oh, ow: ow, geom: geom}
	par.For(c, 1, t)
	t.dx, t.wt, t.g, t.tail, t.lines = nil, nil, nil, nil, nil
	convDXCache.Put(t)
}

// convDXChans clears and accumulates input channels [clo,chi) of dx,
// computing each column row into line just before col2imChans would
// scatter it, and scattering it with the same col2imRow.
func convDXChans(dx, wt, g, tail, line []float32, outC, c, h, w, oh, ow int, geom ConvGeom, clo, chi int) {
	hw := oh * ow
	body := hw / convTile * convTile
	for ci := clo; ci < chi; ci++ {
		dst := dx[ci*h*w : (ci+1)*h*w]
		clear(dst)
		for ky := 0; ky < geom.KH; ky++ {
			for kx := 0; kx < geom.KW; kx++ {
				ox0, ox1 := geom.oxRange(w, ow, kx)
				if ox0 == ox1 {
					continue // the tap only ever reads padding
				}
				r := (ci*geom.KH+ky)*geom.KW + kx
				wr := wt[r*outC : (r+1)*outC]
				if body > 0 {
					gemmRow(line[:body], wr, g, hw)
				}
				if tail != nil {
					gemmRow(line[body:], wr, tail, convTile)
				}
				col2imRow(dst, line, h, w, oh, ow, ky, kx, ox0, ox1, geom)
			}
		}
	}
}

// resize returns buf with length n, reallocating only when its
// capacity is short.
func resize(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}
