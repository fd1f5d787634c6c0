package tensor

import (
	"fmt"

	"ldbnadapt/internal/par"
)

// ConvPlane is the reusable state of ConvInto for one caller: the
// zero-padded input held as its SH×SW row/column-parity planes, the
// offset table into them and one row over the grid per band. The halo
// and the table depend only on the input shape and geometry, so they
// are built when that changes and reused otherwise; the rows grow to
// the most bands seen, so a steady-state call allocates nothing. A
// ConvPlane must not be shared by concurrent calls.
type ConvPlane struct {
	// plane holds parity plane (ci, ry, rx) — padded rows ry, ry+SH, …
	// and columns rx, rx+SW, … of channel ci, hq × wq — at
	// ((ci·nry+ry)·nrx+rx)·hq·wq, for the nry = min(KH,SH) row and
	// nrx = min(KW,SW) column parities some tap reads, then zero
	// slack; only the interior is rewritten per call. At stride 1 it
	// is the one padded plane [c, h+2PH, w+2PW].
	plane   []float32
	off     []int     // off[(ci·KH+ky)·KW+kx]: where tap (ci,ky,kx) reads output (0,0)
	rows    []float32 // band b's grid row is rows[b·cols : (b+1)·cols]
	cols    int       // one output channel over the grid, in whole row-kernel tiles
	direct  bool      // stride 1, unpadded and one column wide (a 1×1): x is the grid, no plane or row
	hq, wq  int       // one parity plane's rows and columns
	c, h, w int
	g       ConvGeom
}

// convTile is the row kernel's widest column tile. Four independent
// accumulator chains advance per coefficient in it, against one in the
// 8-wide tile and the scalar tail, so a whole tile costs what one
// 8-wide step does and the grid is rounded up to whole tiles.
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
// Each output channel is one gemmRowOff call over the grid, positions
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
		s.fill(x.Data)
		src = s.plane
	}
	outC := out.shape[0]
	if K*outC*hw < matmulParMin {
		s.rows = resize(s.rows, s.cols)
		s.chans(out.Data, wm.Data, src, s.rows, oh, ow, 0, outC)
		return
	}
	s.rows = resize(s.rows, par.Width(outC, 1)*s.cols)
	t := convCache.Get()
	*t = convTask{s: s, out: out.Data, wm: wm.Data, src: src, oh: oh, ow: ow}
	par.For(outC, 1, t)
	t.s, t.out, t.wm, t.src = nil, nil, nil, nil
	convCache.Put(t)
}

// convTask is the pooled argument block for ConvInto, banded over
// output channels: band b writes its channels of out through grid row
// b and only reads the planes and the offset table.
type convTask struct {
	s            *ConvPlane
	out, wm, src []float32
	oh, ow       int
}

func (t *convTask) Chunk(band, lo, hi int) {
	t.s.chans(t.out, t.wm, t.src, t.s.rows[band*t.s.cols:(band+1)*t.s.cols], t.oh, t.ow, lo, hi)
}

var convCache par.Cache[convTask]

// chans computes output channels [lo,hi) from src, the filled planes
// (through row, one grid row) or, on the direct path, x itself.
func (s *ConvPlane) chans(out, wm, src, row []float32, oh, ow, lo, hi int) {
	K, hw := len(s.off), oh*ow
	for oc := lo; oc < hi; oc++ {
		dst := out[oc*hw : (oc+1)*hw]
		if s.direct {
			gemmRowOff(dst, wm[oc*K:(oc+1)*K], s.off, src)
			continue
		}
		gemmRowOff(row, wm[oc*K:(oc+1)*K], s.off, src)
		for oy := 0; oy < oh; oy++ {
			copy(dst[oy*ow:(oy+1)*ow], row[oy*s.wq:oy*s.wq+ow])
		}
	}
}

// fill copies the input rows into the parity planes that some tap
// reads: input row iy is padded row iy+PH, so it lands in row parity
// (iy+PH) mod SH, and each column parity rx takes every SW-th element
// of it. One division per row, a copy (SW == 1) or a strided run per
// parity; rows no tap reads (a stride above the kernel) are skipped.
func (s *ConvPlane) fill(x []float32) {
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
				dst := s.plane[at+q0 : at+q1]
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
}

// reshape rebuilds the halo, the offset table and the grid row's length
// when the input shape or geometry differs from the last call's. A parity
// plane has the oh + (KH−1)/SH rows and ow + (KW−1)/SW columns its
// taps read. The buffer is sized from the largest offset plus the
// rounded grid, not from the last tap's offset (a later tap can sit in
// an earlier parity plane), and never below the planes' own extent,
// whose last rows the fill writes even where no output reads them.
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
	s.cols = 0
	if !s.direct {
		grid := (oh-1)*s.wq + ow
		s.cols = (grid + convTile - 1) / convTile * convTile
		s.plane = resize(s.plane, max(c*nry*nrx*s.hq*s.wq, maxOff+s.cols))
		clear(s.plane)
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
// input channels: each band clears and accumulates its own channels.
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
// computing each column row into line just before Col2ImInto would
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
func resize(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}
