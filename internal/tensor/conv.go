package tensor

import "fmt"

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

// resize returns buf with length n, reallocating only when its
// capacity is short.
func resize(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}
