package tensor

import (
	"fmt"
	"math"

	"ldbnadapt/internal/par"
)

// Int8 symmetric quantization kernels for the inference fast path.
//
// Scheme: weights are quantized per output channel (per row of the
// GEMM's left operand), activations per sample with one dynamic scale
// per tensor, both symmetric around zero with the int8 range clamped
// to ±127 (−128 is never produced, so negation is always exact):
//
//	scale = maxabs(v) / 127,  q = clamp(round(v/scale), −127, 127)
//
// Accumulation runs in int32 — exact for any K up to 2³¹/127² ≈ 1.3e5
// taps, far beyond every kernel in this repo — and the float32 result
// is reconstructed as acc · wScale[row] · xScale. Because each sample
// carries its own activation scale, quantizing a batch is literally
// quantizing each sample alone: the batched int8 forward is bitwise
// identical to the sequential one, preserving the serve property
// test's structure (only the int8-vs-float comparison needs an error
// bound; see internal/tensor/README.md for the error model).

// QuantizeInt8 quantizes src into dst (same length) with one symmetric
// dynamic scale for the whole slice and returns that scale. A zero
// input yields scale 0 and an all-zero dst; consumers multiply by the
// scale, so the round trip is still exact.
func QuantizeInt8(dst []int8, src []float32) float32 {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QuantizeInt8 size mismatch %d vs %d", len(dst), len(src)))
	}
	maxAbs := float32(0)
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / float64(scale)
	for i, v := range src {
		q := math.Round(float64(v) * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}

// QuantizeInt8PerRow quantizes a [rows, k] row-major matrix with an
// independent symmetric scale per row (the per-output-channel weight
// scheme), writing int8 values into dst and the per-row scales into
// scales. dst must have len rows*k and scales len rows.
func QuantizeInt8PerRow(dst []int8, scales []float32, src []float32, rows, k int) {
	if len(src) != rows*k || len(dst) != rows*k || len(scales) != rows {
		panic(fmt.Sprintf("tensor: QuantizeInt8PerRow size mismatch src=%d dst=%d scales=%d rows=%d k=%d",
			len(src), len(dst), len(scales), rows, k))
	}
	for r := 0; r < rows; r++ {
		scales[r] = QuantizeInt8(dst[r*k:(r+1)*k], src[r*k:(r+1)*k])
	}
}

// Int8MatMulInto computes out[m,n] = diag(aScales)·(a·b)·xScale where
// a is an int8 [m,k] matrix with per-row scales (quantized weights)
// and b an int8 [k,n] matrix with a single scale (quantized
// activations, e.g. an im2col lowering of one sample). Accumulation is
// int32; out is overwritten.
func Int8MatMulInto(out *Tensor, a []int8, aScales []float32, b []int8, xScale float32, m, k, n int) {
	if len(a) != m*k || len(b) != k*n || len(aScales) != m || len(out.Data) != m*n {
		panic(fmt.Sprintf("tensor: Int8MatMulInto size mismatch a=%d b=%d scales=%d out=%d (m=%d k=%d n=%d)",
			len(a), len(b), len(aScales), len(out.Data), m, k, n))
	}
	if m*k*n < int8ParMin {
		int8MMRows(out.Data, a, aScales, b, xScale, k, n, 0, m)
		return
	}
	t := i8Cache.Get()
	*t = i8Task{op: opI8Rows, out: out.Data, a: a, aScales: aScales, b: b, xScale: xScale, m: m, k: k, n: n}
	par.For(m, 1, t)
	t.out, t.a, t.aScales, t.b, t.bScales = nil, nil, nil, nil, nil
	i8Cache.Put(t)
}

// int8MMRows computes output rows [lo,hi) of the weight-stationary
// int8 GEMM. Each row's int32 accumulation is self-contained, so row
// banding is trivially bitwise-stable (and integer accumulation is
// exact regardless).
func int8MMRows(out []float32, a []int8, aScales []float32, b []int8, xScale float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		oi := out[i*n : (i+1)*n]
		int8AxpyRows(oi, ai, b, k, n, aScales[i]*xScale)
	}
}

// i8Task is the pooled argument block shared by the int8 GEMM
// variants.
type i8Task struct {
	op               int
	out              []float32
	a, b             []int8
	aScales, bScales []float32
	xScale           float32
	m, k, n          int
}

const (
	opI8Rows = iota // Int8MatMulInto, banded over output rows
	opI8TBRows
	opI8TBCols
)

func (t *i8Task) Chunk(_, lo, hi int) {
	switch t.op {
	case opI8Rows:
		int8MMRows(t.out, t.a, t.aScales, t.b, t.xScale, t.k, t.n, lo, hi)
	case opI8TBRows:
		int8TBRange(t.out, t.a, t.aScales, t.b, t.bScales, t.k, t.n, lo, hi, 0, t.n)
	case opI8TBCols:
		int8TBRange(t.out, t.a, t.aScales, t.b, t.bScales, t.k, t.n, 0, t.m, lo, hi)
	}
}

var i8Cache par.Cache[i8Task]

// int8AxpyRows computes oi = s · Σ_p ai[p]·b[p*n:...] with int32
// accumulation per output element, using a k-blocked walk so the
// int32 partial sums live in a small reused stack buffer.
func int8AxpyRows(oi []float32, ai []int8, b []int8, k, n int, s float32) {
	const block = 256
	var acc [block]int32
	for j0 := 0; j0 < n; j0 += block {
		j1 := j0 + block
		if j1 > n {
			j1 = n
		}
		w := j1 - j0
		for j := 0; j < w; j++ {
			acc[j] = 0
		}
		for p := 0; p < k; p++ {
			av := int32(ai[p])
			if av == 0 {
				continue
			}
			bp := b[p*n+j0 : p*n+j1]
			for j, bv := range bp {
				acc[j] += av * int32(bv)
			}
		}
		for j := 0; j < w; j++ {
			oi[j0+j] = s * float32(acc[j])
		}
	}
}

// Int8MatMulTBInto computes out[m,n] = a·bᵀ for int8 a:[m,k] with
// per-row scales aScales (quantized activations, one scale per sample
// row) and int8 b:[n,k] with per-row scales bScales (quantized weights,
// one scale per output feature). Accumulation is int32; out is
// overwritten. This is the quantized Linear forward.
func Int8MatMulTBInto(out *Tensor, a []int8, aScales []float32, b []int8, bScales []float32, m, k, n int) {
	if len(a) != m*k || len(b) != n*k || len(aScales) != m || len(bScales) != n || len(out.Data) != m*n {
		panic(fmt.Sprintf("tensor: Int8MatMulTBInto size mismatch a=%d b=%d out=%d (m=%d k=%d n=%d)",
			len(a), len(b), len(out.Data), m, k, n))
	}
	if m*k*n < int8ParMin {
		int8TBRange(out.Data, a, aScales, b, bScales, k, n, 0, m, 0, n)
		return
	}
	t := i8Cache.Get()
	if m >= 2*par.Width(m, 1) {
		*t = i8Task{op: opI8TBRows, out: out.Data, a: a, aScales: aScales, b: b, bScales: bScales, m: m, k: k, n: n}
		par.For(m, 1, t)
	} else {
		// Serving batches are small (m ∈ 1..8): band the output
		// features instead so one frame still spreads across workers.
		*t = i8Task{op: opI8TBCols, out: out.Data, a: a, aScales: aScales, b: b, bScales: bScales, m: m, k: k, n: n}
		par.For(n, 16, t)
	}
	t.out, t.a, t.aScales, t.b, t.bScales = nil, nil, nil, nil, nil
	i8Cache.Put(t)
}

// int8TBRange computes rows [ilo,ihi) × columns [jlo,jhi) of the
// activation-stationary int8 GEMM. Every element is one exact int32
// dot product, so any banding is bitwise-stable.
func int8TBRange(out []float32, a []int8, aScales []float32, b []int8, bScales []float32, k, n, ilo, ihi, jlo, jhi int) {
	for i := ilo; i < ihi; i++ {
		ai := a[i*k : (i+1)*k]
		oi := out[i*n : (i+1)*n]
		as := aScales[i]
		for j := jlo; j < jhi; j++ {
			bj := b[j*k : (j+1)*k]
			s := int32(0)
			p := 0
			for ; p+4 <= k; p += 4 {
				s += int32(ai[p])*int32(bj[p]) + int32(ai[p+1])*int32(bj[p+1]) +
					int32(ai[p+2])*int32(bj[p+2]) + int32(ai[p+3])*int32(bj[p+3])
			}
			for ; p < k; p++ {
				s += int32(ai[p]) * int32(bj[p])
			}
			oi[j] = as * bScales[j] * float32(s)
		}
	}
}

// Im2ColInt8Into lowers one int8 image [c, h, w] into a [c*kh*kw,
// oh*ow] int8 matrix (single-sample im2col). Zero padding is exact in
// int8 — the symmetric scheme maps 0.0 to quantized 0 — so the lowering
// commutes with quantization.
func Im2ColInt8Into(dst []int8, x []int8, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	rows := c * g.KH * g.KW
	cols := oh * ow
	if len(x) != c*h*w || len(dst) != rows*cols {
		panic(fmt.Sprintf("tensor: Im2ColInt8Into size mismatch x=%d dst=%d want x=%d dst=%d",
			len(x), len(dst), c*h*w, rows*cols))
	}
	if rows*cols < lowerParMin {
		im2colRows(dst, x, 1, c, h, w, oh, ow, g, 0, rows)
		return
	}
	t := i8LowerCache.Get()
	*t = i8LowerTask{dst: dst, x: x, c: c, h: h, w: w, oh: oh, ow: ow, g: g}
	par.For(rows, 1, t)
	t.dst, t.x = nil, nil
	i8LowerCache.Put(t)
}

// i8LowerTask is the pooled argument block for Im2ColInt8Into, banded
// over output rows like the float lowering, whose row kernel it shares
// (im2colRows with n = 1): quantized zero is exactly 0, so padding
// stays exact and unpadded geometries skip the clearing pass too.
type i8LowerTask struct {
	dst, x  []int8
	c, h, w int
	oh, ow  int
	g       ConvGeom
}

func (t *i8LowerTask) Chunk(_, lo, hi int) {
	im2colRows(t.dst, t.x, 1, t.c, t.h, t.w, t.oh, t.ow, t.g, lo, hi)
}

var i8LowerCache par.Cache[i8LowerTask]
