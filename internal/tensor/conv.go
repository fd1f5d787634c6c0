package tensor

import (
	"fmt"

	"ldbnadapt/internal/par"
)

// ConvPlane is the reusable state of ConvInto and ConvInt8Into for one
// caller: the zero-padded input held as its SH×SW row/column-parity
// planes (a float32 copy, an int8 copy, or both), the offset table into
// them and one row over the grid per band. The table depends only on
// the input shape and geometry, so it is built when that changes and
// reused otherwise; each precision's planes are sized and their halo
// zeroed on their first use after such a change, so a caller that runs
// one precision holds no planes of the other. The rows grow to the most
// bands seen, so a steady-state call allocates nothing. A ConvPlane must
// not be shared by concurrent calls.
type ConvPlane struct {
	// plane holds parity plane (ci, ry, rx) — padded rows ry, ry+SH, …
	// and columns rx, rx+SW, … of channel ci, hq × wq — at
	// ((ci·nry+ry)·nrx+rx)·hq·wq, for the nry = min(KH,SH) row and
	// nrx = min(KW,SW) column parities some tap reads, then zero
	// slack; only the interior is rewritten per call. At stride 1 it
	// is the one padded plane [c, h+2PH, w+2PW]. planeQ is its int8
	// twin, laid out alike.
	plane   planes[float32]
	planeQ  planes[int8]
	size    int       // one precision's planes and slack, in elements
	off     []int     // off[(ci·KH+ky)·KW+kx]: where tap (ci,ky,kx) reads output (0,0)
	maxOff  int       // off's largest entry; its smallest is tap (0,0,0)'s 0
	rows    []float32 // band b's grid row is rows[b·cols : (b+1)·cols]
	cols    int       // one output channel over the grid, in whole row-kernel tiles
	direct  bool      // stride 1, unpadded and one column wide (a 1×1): x is the grid, no plane or row
	hq, wq  int       // one parity plane's rows and columns
	c, h, w int
	g       ConvGeom
}

// convTile is the float row kernel's widest column tile. Four
// independent accumulator chains advance per coefficient in it, against
// one in the 8-wide tile and the scalar tail, so a whole tile costs what
// one 8-wide step does and the float grid is rounded up to whole tiles.
const convTile = 32

// ConvInto computes one sample's convolution, out = wm ⊛ x, at any
// stride, reading x through its padded parity planes instead of an
// im2col slab. x is [1, c, h, w], wm is the [outC, c·KH·KW] weight
// matrix and out is [outC, oh·ow]. The result is bitwise Im2ColInto
// followed by MatMulInto: output (oc, oy, ox) accumulates wm[oc, p]
// times the lowering's element (p, oy·ow+ox) in increasing p from +0
// with ±0 weights skipped. Tap p = (ci,ky,kx) reads padded row
// oy·SH+ky, column ox·SW+kx, which is row oy + ky/SH, column
// ox + kx/SW of parity plane (ky mod SH, kx mod SW); so the plane
// holds that element at off[p] + oy·wq + ox, the halo's +0 where the
// lowering zero-fills.
//
// Each output channel is one gemmRow call over the grid, positions
// oy·wq + ox for ox < wq, so every row of the product is a contiguous
// run of one parity plane; the wq − ow columns per line that straddle
// the halo, and the grid's round-up to whole 32-column tiles (read
// from the next plane, or from zero slack after the last), are
// computed and dropped when the ow valid columns of each line are
// copied out. A stride-1 conv one column wide and unpadded, a 1×1,
// reads x itself and writes its rows straight into out. The planes
// are filled serially; the output channels are then banded over the
// worker pool behind the GEMM gate, each band writing its own
// channels from its own grid row, so no element's sum depends on the
// band count.
func ConvInto(out, wm, x *Tensor, g ConvGeom, s *ConvPlane) {
	if x.NDim() != 4 || x.shape[0] != 1 {
		panic(fmt.Sprintf("tensor: ConvInto needs one [1,c,h,w] sample, got %v", x.shape))
	}
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	oh, ow := g.OutSize(h, w)
	K, hw := c*g.KH*g.KW, oh*ow
	if wm.NDim() != 2 || wm.shape[1] != K || out.NDim() != 2 || out.shape[0] != wm.shape[0] || out.shape[1] != hw {
		panic(fmt.Sprintf("tensor: ConvInto %v = %v ⊛ %v, want [m,%d] weights and a [m,%d] dst", out.shape, wm.shape, x.shape, K, hw))
	}
	s.reshape(c, h, w, g)
	src := x.Data
	if !s.direct {
		src = s.plane.fill(s, x.Data)
	}
	outC := out.shape[0]
	s.run(convTask{s: s, out: out.Data, wm: wm.Data, src: src, oh: oh, ow: ow}, outC, K*outC*hw)
}

// ConvInt8Into is ConvInto on the int8 rung: out = diag(wScales)·(wq ⊛ xq)·xScale
// for the int8 weight matrix wq [outC, c·KH·KW] with per-row scales and
// one quantized sample xq [c·h·w] with one scale; out is [outC, oh·ow].
// It quantizes nothing itself. The sample is copied into the int8
// parity planes by ConvInto's own fill, read through the same offset
// table and banded over output channels through the same task behind
// the same gate; each channel is one int8Row call over the grid's exact
// length, (oh−1)·wq + ow, whose halo columns are dropped as in
// ConvInto, and a 1×1 reads xq itself. The int32 sums are exact, so the
// result is bitwise an int8 im2col lowering followed by Int8MatMulInto.
func ConvInt8Into(out *Tensor, wq []int8, wScales []float32, xq []int8, xScale float32, c, h, w int, g ConvGeom, s *ConvPlane) {
	oh, ow := g.OutSize(h, w)
	outC, K, hw := len(wScales), c*g.KH*g.KW, oh*ow
	if len(xq) != c*h*w || len(wq) != outC*K || out.NDim() != 2 || out.shape[0] != outC || out.shape[1] != hw {
		panic(fmt.Sprintf("tensor: ConvInt8Into %v = %d weights ⊛ %d inputs, want %d×%d weights, %d inputs and an [%d,%d] dst",
			out.shape, len(wq), len(xq), outC, K, c*h*w, outC, hw))
	}
	s.reshape(c, h, w, g)
	src := xq
	if !s.direct {
		src = s.planeQ.fill(s, xq)
	}
	s.run(convTask{s: s, out: out.Data, wq: wq, wScales: wScales, srcQ: src, xScale: xScale, oh: oh, ow: ow}, outC, K*outC*hw)
}

// run computes t's outC output channels: on the caller below the GEMM
// gate, otherwise banded over the worker pool, band b through grid row
// b.
func (s *ConvPlane) run(t convTask, outC, macs int) {
	bands := 1
	if macs >= matmulParMin {
		bands = par.Width(outC, 1)
	}
	s.rows = resize(s.rows, bands*s.cols)
	if bands == 1 {
		t.Chunk(0, 0, outC)
		return
	}
	p := convCache.Get()
	*p = t
	par.For(outC, 1, p)
	*p = convTask{}
	convCache.Put(p)
}

// convTask is the pooled argument block for ConvInto and ConvInt8Into,
// banded over output channels: band b writes its channels of out
// through grid row b and only reads the planes and the offset table.
// The float operands (wm, src) or the int8 ones (wq, wScales, srcQ,
// xScale) are set, never both.
type convTask struct {
	s            *ConvPlane
	out, wm, src []float32
	wq, srcQ     []int8
	wScales      []float32
	xScale       float32
	oh, ow       int
}

// Chunk computes output channels [lo,hi) from the filled planes
// through band's grid row or, on the direct path, from x itself.
func (t *convTask) Chunk(band, lo, hi int) {
	s := t.s
	K, hw := len(s.off), t.oh*t.ow
	var row []float32
	if !s.direct {
		row = s.rows[band*s.cols : (band+1)*s.cols]
		if t.wq != nil {
			row = row[:(t.oh-1)*s.wq+t.ow]
		}
	}
	for oc := lo; oc < hi; oc++ {
		dst := t.out[oc*hw : (oc+1)*hw]
		if !s.direct {
			dst = row
		}
		if t.wq == nil {
			gemmRowSpan(dst, t.wm[oc*K:(oc+1)*K], s.off, 0, t.src, 0, s.maxOff)
		} else {
			int8RowSpan(dst, t.wq[oc*K:(oc+1)*K], s.off, 0, t.srcQ, t.wScales[oc]*t.xScale, 0, s.maxOff)
		}
		if !s.direct {
			for oy := 0; oy < t.oh; oy++ {
				copy(t.out[oc*hw+oy*t.ow:oc*hw+(oy+1)*t.ow], row[oy*s.wq:oy*s.wq+t.ow])
			}
		}
	}
}

var convCache par.Cache[convTask]

// planes is one precision's parity planes. fresh is set once buf is
// sized and its halo zeroed for the shape s.reshape last saw.
type planes[T float32 | int8] struct {
	buf   []T
	fresh bool
}

// fill copies x into the parity planes that some tap reads and returns
// them, sized to s.size and zeroed first if the shape changed since
// their last fill. Input row iy is padded row iy+PH, so it lands in row
// parity (iy+PH) mod SH, and each column parity rx takes every SW-th
// element of it. One division per row, a copy (SW == 1) or a strided
// run per parity; rows no tap reads (a stride above the kernel) are
// skipped. Quantized zero is exactly 0, so the int8 halo is the
// padding the float halo is.
func (p *planes[T]) fill(s *ConvPlane, x []T) []T {
	if !p.fresh {
		p.buf = resize(p.buf, s.size)
		clear(p.buf)
		p.fresh = true
	}
	plane := p.buf
	g := s.g
	nry, nrx := min(g.KH, g.SH), min(g.KW, g.SW)
	for ci := 0; ci < s.c; ci++ {
		for iy := 0; iy < s.h; iy++ {
			py := iy + g.PH
			ry, qy := py%g.SH, py/g.SH
			if ry >= nry || qy >= s.hq {
				continue
			}
			src := x[(ci*s.h+iy)*s.w : (ci*s.h+iy+1)*s.w]
			for rx := 0; rx < nrx; rx++ {
				q0, q1 := g.oxRange(s.w, s.wq, rx)
				at := ((ci*nry+ry)*nrx+rx)*s.hq*s.wq + qy*s.wq
				dst := plane[at+q0 : at+q1]
				ix := q0*g.SW + rx - g.PW
				if g.SW == 1 {
					copy(dst, src[ix:ix+len(dst)])
					continue
				}
				for i := range dst {
					dst[i] = src[ix]
					ix += g.SW
				}
			}
		}
	}
	return plane
}

// reshape rebuilds the offset table, the grid row's length and the
// planes' size when the input shape or geometry differs from the last
// call's, and marks both precisions' planes stale. A parity plane has
// the oh + (KH−1)/SH rows and ow + (KW−1)/SW columns its taps read. The
// planes are sized from the largest offset plus the rounded grid, not
// from the last tap's offset (a later tap can sit in an earlier parity
// plane), and never below the planes' own extent, whose last rows the
// fill writes even where no output reads them.
func (s *ConvPlane) reshape(c, h, w int, g ConvGeom) {
	if s.off != nil && s.c == c && s.h == h && s.w == w && s.g == g {
		return
	}
	s.c, s.h, s.w, s.g = c, h, w, g
	oh, ow := g.OutSize(h, w)
	nry, nrx := min(g.KH, g.SH), min(g.KW, g.SW)
	s.hq, s.wq = oh+(g.KH-1)/g.SH, ow+(g.KW-1)/g.SW
	s.direct = g.SH == 1 && g.SW == 1 && g.KW == 1 && g.PH == 0 && g.PW == 0
	if cap(s.off) < c*g.KH*g.KW {
		s.off = make([]int, c*g.KH*g.KW)
	}
	s.off = s.off[:c*g.KH*g.KW]
	maxOff := 0
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				o := ((ci*nry+ky%g.SH)*nrx+kx%g.SW)*s.hq*s.wq + ky/g.SH*s.wq + kx/g.SW
				s.off[(ci*g.KH+ky)*g.KW+kx] = o
				maxOff = max(maxOff, o)
			}
		}
	}
	s.maxOff = maxOff
	s.cols, s.plane.fresh, s.planeQ.fresh = 0, false, false
	if !s.direct {
		grid := (oh-1)*s.wq + ow
		s.cols = (grid + convTile - 1) / convTile * convTile
		s.size = max(c*nry*nrx*s.hq*s.wq, maxOff+s.cols)
	}
}

// ConvDXLines is the reusable state of ConvDXInto for one caller: per
// band a line and a gathered weight column, and the gradient's partial
// last tile. All are grown to the largest call seen and reused, so a
// steady-state call allocates nothing. A ConvDXLines must not be shared
// by concurrent calls.
type ConvDXLines struct {
	lines []float32 // band b's line is lines[b·cols : (b+1)·cols]
	wcol  []float32 // band b's weight column is wcol[b·outC : (b+1)·outC]
	tail  []float32 // [outC, convTile]: g's last oh·ow mod 32 columns, then zeros
}

// convDXTask is the pooled argument block for ConvDXInto, banded over
// input channels: each band clears and accumulates its own channels.
type convDXTask struct {
	dx, wm, g, tail, lines, wcol []float32
	cols                         int
	outC, c, h, w                int
	oh, ow                       int
	geom                         ConvGeom
}

func (t *convDXTask) Chunk(band, lo, hi int) {
	convDXChans(t.dx, t.wm, t.g, t.tail, t.lines[band*t.cols:(band+1)*t.cols], t.wcol[band*t.outC:(band+1)*t.outC],
		t.outC, t.c, t.h, t.w, t.oh, t.ow, t.geom, lo, hi)
}

var convDXCache par.Cache[convDXTask]

// ConvDXInto computes one sample's convolution input gradient,
// dx = col2im(wmᵀ·g), without the K × oh·ow column matrix between the
// two. dx is [1, c, h, w], wm is the weight matrix [outC, c·KH·KW] and
// g is the output gradient [outC, oh·ow]; any stride and padding. The
// result is bitwise MatMulInto over the transposed weight followed by
// Col2ImInto: each input channel is cleared, then for each tap (ky,kx)
// in col2im's order the weight column r = (ci,ky,kx) — outC values, K
// apart in wm — is gathered into the band's scratch, the column row r
// is computed from it by the same row kernel into a line, and the
// line's valid runs are added into the channel at once, in the same
// order. So no transposed weight is built or kept. A tap that only ever
// reads padding is skipped, as col2im skips its row.
//
// The line is rounded up to whole 32-column tiles. The tiles inside
// oh·ow read g in place; a partial last tile reads a [outC, 32] copy
// of g's last columns with zeros after them, so its columns past oh·ow
// are computed and dropped and g needs no slack. No padded gradient
// plane is read: an Inf weight times a halo zero would add a NaN that
// col2im never adds. Input channels are banded over the worker pool
// behind the GEMM gate.
func ConvDXInto(dx, wm, g *Tensor, geom ConvGeom, s *ConvDXLines) {
	if dx.NDim() != 4 || dx.shape[0] != 1 {
		panic(fmt.Sprintf("tensor: ConvDXInto needs one [1,c,h,w] sample, got %v", dx.shape))
	}
	c, h, w := dx.shape[1], dx.shape[2], dx.shape[3]
	oh, ow := geom.OutSize(h, w)
	K, hw := c*geom.KH*geom.KW, oh*ow
	if wm.NDim() != 2 || wm.shape[1] != K || g.NDim() != 2 || g.shape[0] != wm.shape[0] || g.shape[1] != hw {
		panic(fmt.Sprintf("tensor: ConvDXInto %v = col2im(%vᵀ · %v), want [m,%d] weights and an [m,%d] gradient", dx.shape, wm.shape, g.shape, K, hw))
	}
	outC := wm.shape[0]
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
		s.wcol = resize(s.wcol, outC)
		convDXChans(dx.Data, wm.Data, g.Data, tail, s.lines, s.wcol, outC, c, h, w, oh, ow, geom, 0, c)
		return
	}
	bands := par.Width(c, 1)
	s.lines = resize(s.lines, bands*cols)
	s.wcol = resize(s.wcol, bands*outC)
	t := convDXCache.Get()
	*t = convDXTask{dx: dx.Data, wm: wm.Data, g: g.Data, tail: tail, lines: s.lines, wcol: s.wcol, cols: cols,
		outC: outC, c: c, h: h, w: w, oh: oh, ow: ow, geom: geom}
	par.For(c, 1, t)
	t.dx, t.wm, t.g, t.tail, t.lines, t.wcol = nil, nil, nil, nil, nil, nil
	convDXCache.Put(t)
}

// convDXChans clears and accumulates input channels [clo,chi) of dx,
// gathering each weight column into wcol and computing its column row
// into line just before Col2ImInto would scatter it, and scattering it
// with the same col2imRow.
func convDXChans(dx, wm, g, tail, line, wcol []float32, outC, c, h, w, oh, ow int, geom ConvGeom, clo, chi int) {
	hw := oh * ow
	body := hw / convTile * convTile
	K := c * geom.KH * geom.KW
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
				for oc := range wcol {
					wcol[oc] = wm[oc*K+r]
				}
				if body > 0 {
					gemmRow(line[:body], wcol, nil, hw, g)
				}
				if tail != nil {
					gemmRow(line[body:], wcol, nil, convTile, tail)
				}
				col2imRow(dst, line, h, w, oh, ow, ky, kx, ox0, ox1, geom)
			}
		}
	}
}

// ConvDWLines is the reusable state of ConvDWAcc for one caller: the
// sample's gradient transposed to [oh·ow, L], L = outC rounded up to
// whole 8-lane blocks with the lanes past outC zero, and per band
// dwRows lowering rows and their lane chains. All three grow to the
// largest call seen and are reused, so a steady-state call allocates
// nothing. A ConvDWLines must not be shared by concurrent calls.
type ConvDWLines struct {
	gt    []float32 // gt[j·L + oc] = g[oc, j]
	lines []float32 // band b's rows are lines[b·dwRows·oh·ow : (b+1)·dwRows·oh·ow]
	acc   []float32 // band b's chains are acc[b·dwRows·L : (b+1)·dwRows·L]
}

// dwRows is how many lowering rows one pass of the lane kernel takes:
// they share its loads of the transposed gradient.
const dwRows = 4

// convDWTask is the pooled argument block for ConvDWAcc, banded over
// the lowering's rows: band b owns dW's columns [lo,hi), its rows and
// its chains, and only reads the transposed gradient.
type convDWTask struct {
	s       *ConvDWLines
	dw, x   []float32
	outC, L int
	c, h, w int
	oh, ow  int
	geom    ConvGeom
}

func (t *convDWTask) Chunk(band, lo, hi int) {
	convDWBand(t.dw, t.x, t.s, band, t.outC, t.L, t.c, t.h, t.w, t.oh, t.ow, t.geom, lo, hi)
}

var convDWCache par.Cache[convDWTask]

// ConvDWAcc accumulates one sample's convolution weight gradient,
// dw += g·cols(x)ᵀ, without the K × oh·ow lowering between the two.
// dw is [outC, c·KH·KW], g is the output gradient [outC, oh·ow] and x
// is the sample's input [1, c, h, w]; any stride and padding. g is
// transposed once per call so that its oh·ow positions are rows of
// output-channel lanes. Row p of the lowering is built by Im2ColInto's
// own row body, dwRows rows at a time, and the lane kernel (dwLanes)
// advances one chain per output channel over the row's positions in
// dotUnroll4's order: each dw[oc, p] gains exactly the dot product
// MatMulTBInto takes of g's row oc and that row, so the result is
// bitwise Im2ColInto, MatMulTBInto and an elementwise add. The rows
// are banded over the worker pool behind the GEMM gate; each band
// owns its dw columns, rows and chains, so no element's sum depends on
// the band count. A batch calls it once per sample, in sample order.
func ConvDWAcc(dw, g, x *Tensor, geom ConvGeom, s *ConvDWLines) {
	if x.NDim() != 4 || x.shape[0] != 1 {
		panic(fmt.Sprintf("tensor: ConvDWAcc needs one [1,c,h,w] sample, got %v", x.shape))
	}
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	oh, ow := geom.OutSize(h, w)
	K, hw := c*geom.KH*geom.KW, oh*ow
	if g.NDim() != 2 || g.shape[1] != hw || dw.NDim() != 2 || dw.shape[0] != g.shape[0] || dw.shape[1] != K {
		panic(fmt.Sprintf("tensor: ConvDWAcc %v += %v · cols(%v)ᵀ, want an [m,%d] gradient and an [m,%d] dst", dw.shape, g.shape, x.shape, hw, K))
	}
	outC := dw.shape[0]
	L := (outC + 7) &^ 7
	s.gt = resize(s.gt, hw*L)
	transposeLanes(s.gt, g.Data, outC, hw, L)
	bands := 1
	if K*outC*hw >= matmulParMin {
		bands = par.Width(K, 1)
	}
	s.lines = resize(s.lines, bands*dwRows*hw)
	s.acc = resize(s.acc, bands*dwRows*L)
	if bands == 1 {
		convDWBand(dw.Data, x.Data, s, 0, outC, L, c, h, w, oh, ow, geom, 0, K)
		return
	}
	t := convDWCache.Get()
	*t = convDWTask{s: s, dw: dw.Data, x: x.Data, outC: outC, L: L, c: c, h: h, w: w, oh: oh, ow: ow, geom: geom}
	par.For(K, 1, t)
	t.s, t.dw, t.x = nil, nil, nil
	convDWCache.Put(t)
}

// transposeLanes writes g [outC, hw] into gt [hw, L] with the lanes
// past outC zero, four positions per pass over g's rows.
func transposeLanes(gt, g []float32, outC, hw, L int) {
	j := 0
	for ; j+4 <= hw; j += 4 {
		t0 := gt[j*L : (j+1)*L]
		t1 := gt[(j+1)*L : (j+2)*L][:len(t0)]
		t2 := gt[(j+2)*L : (j+3)*L][:len(t0)]
		t3 := gt[(j+3)*L : (j+4)*L][:len(t0)]
		for oc := 0; oc < outC; oc++ {
			src := g[oc*hw+j : oc*hw+j+4]
			t0[oc], t1[oc], t2[oc], t3[oc] = src[0], src[1], src[2], src[3]
		}
		for oc := outC; oc < L; oc++ {
			t0[oc], t1[oc], t2[oc], t3[oc] = 0, 0, 0, 0
		}
	}
	for ; j < hw; j++ {
		row := gt[j*L : (j+1)*L]
		for oc := 0; oc < outC; oc++ {
			row[oc] = g[oc*hw+j]
		}
		clear(row[outC:])
	}
}

// convDWBand lowers rows [lo,hi) of one sample into band b's rows,
// dwRows at a time, runs the lane kernel over them and adds each row's
// chains into its column of dw.
func convDWBand(dw, x []float32, s *ConvDWLines, b, outC, L, c, h, w, oh, ow int, geom ConvGeom, lo, hi int) {
	K, hw := c*geom.KH*geom.KW, oh*ow
	lines := s.lines[b*dwRows*hw : (b+1)*dwRows*hw]
	acc := s.acc[b*dwRows*L : (b+1)*dwRows*L]
	for p0 := lo; p0 < hi; p0 += dwRows {
		nr := min(dwRows, hi-p0)
		for r := 0; r < nr; r++ {
			im2colRow(lines[r*hw:(r+1)*hw], x, 1, c, h, w, oh, ow, geom, p0+r)
		}
		dwLanes(acc[:nr*L], s.gt, lines[:nr*hw], hw, L, nr)
		for r := 0; r < nr; r++ {
			for oc, v := range acc[r*L : r*L+outC] {
				dw[oc*K+p0+r] += v
			}
		}
	}
}

// dwLanesGo is the lane kernel's spec. For each of nr rows of lines
// (hw apart) it sets acc[r·L + oc] to the dot product of that row with
// lane oc of gt ([hw, L]), for every lane: one chain per lane, from
// +0, gaining ((g₀l₀ + g₁l₁) + g₂l₂) + g₃l₃ per four positions and one
// product per leftover position — dotUnroll4's expression, lane by
// lane, so each chain is bitwise dotUnroll4 of the lane's column and
// the row. The assembly tiers run eight or sixteen lanes per vector.
func dwLanesGo(acc, gt, lines []float32, hw, L, nr int) {
	for r := 0; r < nr; r++ {
		a := acc[r*L : (r+1)*L]
		l := lines[r*hw : (r+1)*hw]
		clear(a)
		j := 0
		for ; j+4 <= hw; j += 4 {
			g0 := gt[j*L : (j+1)*L][:len(a)]
			g1 := gt[(j+1)*L : (j+2)*L][:len(a)]
			g2 := gt[(j+2)*L : (j+3)*L][:len(a)]
			g3 := gt[(j+3)*L : (j+4)*L][:len(a)]
			l0, l1, l2, l3 := l[j], l[j+1], l[j+2], l[j+3]
			for oc := range a {
				a[oc] += g0[oc]*l0 + g1[oc]*l1 + g2[oc]*l2 + g3[oc]*l3
			}
		}
		for ; j < hw; j++ {
			gj := gt[j*L : (j+1)*L][:len(a)]
			lj := l[j]
			for oc := range a {
				a[oc] += gj[oc] * lj
			}
		}
	}
}

// resize returns buf with length n, reallocating only when its
// capacity is short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
