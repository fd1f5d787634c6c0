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
	// The largest |v| as bits: with the sign cleared a float's bits
	// order as its magnitude does, and a NaN (above +Inf's bits) counts
	// as 0, so it is ignored as a NaN compared with > would be.
	maxBits := uint32(0)
	for _, v := range src {
		u := math.Float32bits(v) &^ (1 << 31)
		if u > 0x7f800000 {
			u = 0
		}
		maxBits = max(maxBits, u)
	}
	if maxBits == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	scale := math.Float32frombits(maxBits) / 127
	inv := 1 / float64(scale)
	for i, v := range src {
		q := roundHalfAway(float64(v) * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}

// roundHalfAway is math.Round, bit for bit, for |x| < 2⁵², ±Inf and
// NaN, which covers every x QuantizeInt8 rounds (|v·inv| is at most
// ~127.5 unless it is ±Inf or NaN). Adding and subtracting 2⁵² rounds
// |x| to the nearest integer, ties to even, and a tie rounded down is
// moved up, away from zero; ±Inf and NaN pass through both steps. The
// sign, −0 included, is x's.
func roundHalfAway(x float64) float64 {
	a := math.Abs(x)
	r := (a + 0x1p52) - 0x1p52
	if a-r == 0.5 {
		r++
	}
	return math.Copysign(r, x)
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
// activations: Linear's one sample as a [k,1] column). Each output row
// is one int8Row call with b's rows n apart; accumulation is int32 and
// exact, so the output rows are banded over the pool behind the GEMM
// gate at no cost to any bit. out is overwritten.
func Int8MatMulInto(out *Tensor, a []int8, aScales []float32, b []int8, xScale float32, m, k, n int) {
	if len(a) != m*k || len(b) != k*n || len(aScales) != m || len(out.Data) != m*n {
		panic(fmt.Sprintf("tensor: Int8MatMulInto size mismatch a=%d b=%d scales=%d out=%d (m=%d k=%d n=%d)",
			len(a), len(b), len(aScales), len(out.Data), m, k, n))
	}
	t := i8Task{out: out.Data, a: a, aScales: aScales, b: b, xScale: xScale, k: k, n: n}
	if m*k*n < matmulParMin {
		t.Chunk(0, 0, m)
		return
	}
	p := i8Cache.Get()
	*p = t
	par.For(m, 1, p)
	*p = i8Task{}
	i8Cache.Put(p)
}

// i8Task is the pooled argument block for Int8MatMulInto, banded over
// output rows.
type i8Task struct {
	out     []float32
	a, b    []int8
	aScales []float32
	xScale  float32
	k, n    int
}

func (t *i8Task) Chunk(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		int8Row(t.out[i*t.n:(i+1)*t.n], t.a[i*t.k:(i+1)*t.k], nil, t.n, t.b, t.aScales[i]*t.xScale)
	}
}

var i8Cache par.Cache[i8Task]

// int8RowGo is the int8 row kernel's spec: dst[j] = scale · float32(Σ_p ai[p]·b[o_p + j])
// with o_p = off[p], or p·ld when off is nil. It accumulates in int32
// over 256-column blocks held on the stack and takes the coefficients
// two at a time, a pair of zeros skipped; the sums are exact, so neither
// the pairing nor the order moves a bit, and the assembly tiers
// (int8Row in gemm_amd64.go) reproduce it bit for bit.
func int8RowGo(dst []float32, ai []int8, off []int, ld int, b []int8, scale float32) {
	const block = 256
	var buf [block]int32
	k := len(ai)
	for j0 := 0; j0 < len(dst); j0 += block {
		acc := buf[:min(block, len(dst)-j0)]
		clear(acc)
		p := 0
		for ; p+1 < k; p += 2 {
			a0, a1 := int32(ai[p]), int32(ai[p+1])
			if a0|a1 == 0 {
				continue
			}
			o0, o1 := p*ld, (p+1)*ld
			if off != nil {
				o0, o1 = off[p], off[p+1]
			}
			b0 := b[o0+j0:][:len(acc)]
			b1 := b[o1+j0:][:len(acc)]
			for j := range acc {
				acc[j] += a0*int32(b0[j]) + a1*int32(b1[j])
			}
		}
		if p < k && ai[p] != 0 {
			a0, o0 := int32(ai[p]), p*ld
			if off != nil {
				o0 = off[p]
			}
			b0 := b[o0+j0:][:len(acc)]
			for j := range acc {
				acc[j] += a0 * int32(b0[j])
			}
		}
		for j, v := range acc {
			dst[j0+j] = scale * float32(v)
		}
	}
}
