//go:build amd64 && !purego

package tensor

import (
	"math"
	"testing"
)

// Assembly ≡ Go suite: the AVX2 kernels in gemm_amd64.s must produce
// the bits the Go kernels do, for every shape, alignment and worker
// count, because the seeded pins and byte-stable traces upstream were
// all recorded through the Go kernels. Each case runs once with
// useAVX2 off (the spec) and once with it on.

// fuseX·fuseX + fuseZ is 2⁻²⁴ when evaluated as one fused
// multiply-add and 0 when the product is rounded to float32 first.
var fuseX, fuseZ float32 = 1 + 1.0/4096, -(1 + 1.0/2048)

// needAVX2 skips when there is no assembly to compare, or when this
// build contracts the Go kernel's multiply-add into one FMA — which
// the language allows and a GOAMD64=v3 toolchain may do. The assembly
// mirrors the default build, which rounds the product first.
func needAVX2(t *testing.T) {
	t.Helper()
	if !cpuHasAVX2() {
		t.Skip("CPU or OS without AVX2: the Go kernels are the only path")
	}
	if fuseX*fuseX+fuseZ != float32(fuseX*fuseX)+fuseZ {
		t.Skip("this build fuses x*y+z in the Go kernels (GOAMD64=v3?); the assembly matches the unfused default build")
	}
}

// withAVX2 runs f with the assembly kernels switched on or off.
func withAVX2(on bool, f func()) {
	prev := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = prev }()
	f()
}

// frameBits is the NaN pattern that both poisons destinations (the
// kernels must overwrite every element) and frames them (the kernels
// must not write outside).
const frameBits = 0xffc0beef

const framePad = 8

// framed returns a tensor whose storage starts off floats into a
// poison-filled buffer with framePad floats spare on each side, and a
// function reporting whether anything outside the tensor was written.
func framed(off int, shape ...int) (*Tensor, func() bool) {
	size := 1
	for _, d := range shape {
		size *= d
	}
	buf := make([]float32, framePad+off+size+framePad)
	poison := math.Float32frombits(frameBits)
	for i := range buf {
		buf[i] = poison
	}
	lo := framePad + off
	intact := func() bool {
		for i, v := range buf {
			if (i < lo || i >= lo+size) && math.Float32bits(v) != frameBits {
				return false
			}
		}
		return true
	}
	return FromSlice(buf[lo:lo+size:lo+size], shape...), intact
}

// offset returns a copy of src in a tensor starting off floats into
// its backing array, so operands are seen at every 32-byte phase.
func offset(src *Tensor, off int) *Tensor {
	buf := make([]float32, off+len(src.Data))
	copy(buf[off:], src.Data)
	return FromSlice(buf[off:], src.Shape()...)
}

// eachPoolConfig runs check at the production gates (procs 0), then
// with the gates forced low at every worker count: rows band at high
// m, and at low m matmulCols' 16-float column bands reach the row
// kernel with ldb != n.
func eachPoolConfig(t *testing.T, check func(procs int)) {
	t.Helper()
	check(0)
	pm, lm := matmulParMin, lowerParMin
	matmulParMin, lowerParMin = 1, 1
	defer func() { matmulParMin, lowerParMin = pm, lm }()
	for _, procs := range parProcs {
		withMaxProcs(t, procs, func() { check(procs) })
	}
}

type gemmShape = struct{ m, k, n int }

// avx2GEMMShapes are Small's conv GEMMs (forward, then the frozen-dX
// transposes), followed by adversarial ones: the worker-count suite's
// shapes (prime dims, single rows and columns) and every n in 1..70,
// so each combination of 32-wide tiles, 8-wide tiles and scalar tail
// occurs.
func avx2GEMMShapes() []gemmShape {
	shapes := []gemmShape{
		{6, 147, 1440}, {12, 54, 360}, {12, 108, 360}, {24, 108, 90}, {24, 216, 90},
		{48, 216, 24}, {48, 432, 24}, {48, 432, 8},
		{432, 48, 8}, {432, 48, 24}, {216, 24, 90}, {108, 12, 360},
		{1, 257, 1}, {101, 3, 1},
	}
	shapes = append(shapes, gemmShapes...)
	for n := 1; n <= 70; n++ {
		shapes = append(shapes, gemmShape{3, 7, n})
	}
	return shapes
}

// checkGEMMAgainstGo holds one a·b variant to the Go kernels on every
// shape: mul is MatMulInto, or MatMulTAInto with a stored [k, m].
func checkGEMMAgainstGo(t *testing.T, name string, seed uint64, transA bool, mul func(out, a, b *Tensor)) {
	needAVX2(t)
	rng := NewRNG(seed)
	for si, sh := range avx2GEMMShapes() {
		a := New(sh.m, sh.k)
		if transA {
			a = New(sh.k, sh.m)
		}
		b := New(sh.k, sh.n)
		rng.FillUniform(a, -2, 2)
		rng.FillUniform(b, -2, 2)
		sprinkleZeros(a.Data)
		want := New(sh.m, sh.n)
		restore := serialGates(t)
		withAVX2(false, func() { mul(want, a, b) })
		restore()
		off := si % 8
		a, b = offset(a, (off+5)%8), offset(b, (off+3)%8)
		eachPoolConfig(t, func(procs int) {
			got, intact := framed(off, sh.m, sh.n)
			withAVX2(true, func() { mul(got, a, b) })
			if i := bitsEqual(want.Data, got.Data); i >= 0 {
				t.Fatalf("%s %dx%dx%d off=%d procs=%d: element %d is %x, Go kernel gives %x",
					name, sh.m, sh.k, sh.n, off, procs, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
			}
			if !intact() {
				t.Fatalf("%s %dx%dx%d off=%d procs=%d: wrote outside dst", name, sh.m, sh.k, sh.n, off, procs)
			}
		})
	}
}

func TestAVX2MatMulMatchesGo(t *testing.T) {
	checkGEMMAgainstGo(t, "MatMul", 0xa5a5, false, MatMulInto)
}

func TestAVX2MatMulTAMatchesGo(t *testing.T) {
	checkGEMMAgainstGo(t, "MatMulTA", 0x7a7a, true, MatMulTAInto)
}

// TestAVX2RowKernelEveryOffset drives the row kernel alone at every
// (dst, b) phase of a 32-byte vector, with a row stride wider than the
// band — the matmulCols call shape.
func TestAVX2RowKernelEveryOffset(t *testing.T) {
	needAVX2(t)
	rng := NewRNG(0x0ff5)
	const k, ldb = 9, 83
	ai := make([]float32, k)
	bm := New(k, ldb)
	rng.FillUniform(bm, -2, 2)
	for i := range ai {
		ai[i] = float32(rng.Range(-2, 2))
	}
	ai[4] = 0
	for n := 1; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			jlo := off // band start inside the row: shifts b's phase too
			if jlo+n > ldb {
				continue
			}
			want := make([]float32, n)
			gemmRowGo(want, ai, bm.Data[jlo:], ldb)
			got, intact := framed(off, n)
			withAVX2(true, func() { gemmRow(got.Data, ai, bm.Data[jlo:], ldb) })
			if i := bitsEqual(want, got.Data); i >= 0 {
				t.Fatalf("row kernel n=%d off=%d: element %d differs", n, off, i)
			}
			if !intact() {
				t.Fatalf("row kernel n=%d off=%d: wrote outside dst", n, off)
			}
		}
	}
}

// TestAVX2RowOffKernelMatchesGo holds the offset-table row kernel to
// its Go spec for every k in 1..60 and every n in 1..70 (each mix of
// 32-wide tiles, 8-wide tiles and scalar tail), at every dst phase,
// with ±0 runs in a, NaN, ±Inf and denormals in both operands, and
// offset tables that run forwards, backwards and repeat a row.
func TestAVX2RowOffKernelMatchesGo(t *testing.T) {
	needAVX2(t)
	rng := NewRNG(0x0ff7)
	const bLen = 700
	b := make([]float32, bLen)
	for i := range b {
		b[i] = float32(rng.Range(-2, 2))
	}
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(1 << 31),
	}
	for i, v := range specials {
		b[37*i+11] = v
	}
	ai := make([]float32, 60)
	off := make([]int, 60)
	for k := 1; k <= 60; k++ {
		for n := 1; n <= 70; n++ {
			for i := range ai[:k] {
				ai[i] = float32(rng.Range(-2, 2))
			}
			sprinkleZeros(ai[:k])
			if k%7 == 3 {
				ai[k/2] = specials[(k+n)%len(specials)]
			}
			span := bLen - n
			for p := range off[:k] {
				switch (k + n) % 3 {
				case 0: // forwards, rows overlapping
					off[p] = p * span / k
				case 1: // backwards
					off[p] = span - p*span/k
				default: // arbitrary, repeats allowed
					off[p] = int(rng.Range(0, float64(span)))
				}
			}
			want := make([]float32, n)
			gemmRowOffGo(want, ai[:k], off[:k], b)
			dOff := (k + n) % 8
			got, intact := framed(dOff, n)
			withAVX2(true, func() { gemmRowOff(got.Data, ai[:k], off[:k], b) })
			if i := sameBits(want, got.Data); i >= 0 {
				t.Fatalf("offset row kernel k=%d n=%d: element %d is %x, Go kernel gives %x",
					k, n, i, math.Float32bits(got.Data[i]), math.Float32bits(want[i]))
			}
			if !intact() {
				t.Fatalf("offset row kernel k=%d n=%d: wrote outside dst", k, n)
			}
		}
	}
}

func TestAVX2Col2ImMatchesGo(t *testing.T) {
	needAVX2(t)
	rng := NewRNG(0xc01a)
	shapes := append(lowerTestShapes(), lowerShapes...)
	for si, sh := range shapes {
		oh, ow := sh.g.OutSize(sh.h, sh.w)
		cols := New(sh.c*sh.g.KH*sh.g.KW, sh.n*oh*ow)
		rng.FillUniform(cols, -3, 3)
		want := New(sh.n, sh.c, sh.h, sh.w)
		restore := serialGates(t)
		withAVX2(false, func() { Col2ImInto(want, cols, sh.g) })
		restore()
		off := si % 8
		cols = offset(cols, (off+1)%8)
		check := func(procs int) {
			got, intact := framed(off, sh.n, sh.c, sh.h, sh.w)
			withAVX2(true, func() { Col2ImInto(got, cols, sh.g) })
			if i := bitsEqual(want.Data, got.Data); i >= 0 {
				t.Fatalf("Col2Im %+v off=%d procs=%d: element %d differs from the Go kernel", sh, off, procs, i)
			}
			if !intact() {
				t.Fatalf("Col2Im %+v off=%d procs=%d: wrote outside dst", sh, off, procs)
			}
		}
		eachPoolConfig(t, check)
	}
}

// TestAVX2NonFiniteMatchesGo: Inf and NaN operands must poison the
// same output elements through both kernels — which is what the
// a[p] == 0 skip decides (0·Inf would be NaN) — and every finite
// element must still match bit for bit.
func TestAVX2NonFiniteMatchesGo(t *testing.T) {
	needAVX2(t)
	rng := NewRNG(0x1f1f)
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	const m, k, n = 5, 13, 45
	a := New(m, k)
	b := New(k, n)
	rng.FillUniform(a, -2, 2)
	rng.FillUniform(b, -2, 2)
	sprinkleZeros(a.Data)
	b.Data[0*n+3] = inf   // under a zero of a in row 0: skipped, stays finite
	b.Data[2*n+40] = -inf // under a non-zero: the column goes to −Inf
	b.Data[5*n+17] = nan
	b.Data[7*n+33], b.Data[8*n+33] = inf, -inf // Inf − Inf in one column
	a.Data[3*k+6] = nan                        // a NaN weight is not zero: poisons its row
	at := Transpose(a)
	want, wantTA := New(m, n), New(m, n)
	withAVX2(false, func() { MatMulInto(want, a, b); MatMulTAInto(wantTA, at, b) })
	got, gotTA := New(m, n), New(m, n)
	withAVX2(true, func() { MatMulInto(got, a, b); MatMulTAInto(gotTA, at, b) })
	if i := sameBits(want.Data, got.Data); i >= 0 {
		t.Fatalf("MatMul non-finite: element %d is %v, Go kernel gives %v", i, got.Data[i], want.Data[i])
	}
	if i := sameBits(wantTA.Data, gotTA.Data); i >= 0 {
		t.Fatalf("MatMulTA non-finite: element %d is %v, Go kernel gives %v", i, gotTA.Data[i], wantTA.Data[i])
	}
	nans := 0
	for _, v := range want.Data {
		if v != v {
			nans++
		}
	}
	if nans == 0 || nans == len(want.Data) {
		t.Fatalf("fixture is not discriminating: %d of %d outputs are NaN", nans, len(want.Data))
	}
}

// TestAVX2EmptyProducts: the assembly takes &x[0], so the wrappers
// must keep empty operands away from it — and k == 0 must still zero
// dst, as the Go kernel's clear does.
func TestAVX2EmptyProducts(t *testing.T) {
	needAVX2(t)
	withAVX2(true, func() {
		dst := []float32{7, 7, 7}
		gemmRow(dst, nil, nil, 3) // k == 0
		for i, v := range dst {
			if math.Float32bits(v) != 0 {
				t.Fatalf("k=0: dst[%d] = %v, want +0", i, v)
			}
		}
		gemmRow(nil, []float32{1, 2}, nil, 0) // n == 0
		matmulRows(nil, nil, nil, 0, 0, 4, 4) // m == 0
		matmulCols(dst, nil, nil, 1, 0, 3, 0, 3)
		matmulTARows(dst, nil, nil, 1, 0, 3, 0, 1)
		axpy(nil, nil, 2)
		addRow(nil, nil)
		dst = []float32{7, 7, 7}
		gemmRowOff(dst, nil, nil, nil) // k == 0
		for i, v := range dst {
			if math.Float32bits(v) != 0 {
				t.Fatalf("offset k=0: dst[%d] = %v, want +0", i, v)
			}
		}
		gemmRowOff(nil, []float32{1, 2}, []int{0, 0}, nil) // n == 0
	})
}
