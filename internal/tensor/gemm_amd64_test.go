//go:build amd64 && !purego

package tensor

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Assembly ≡ Go suite: the AVX2 kernels in gemm_amd64.s must produce
// the bits the Go kernels do, for every shape, alignment and worker
// count, because the seeded pins and byte-stable traces upstream were
// all recorded through the Go kernels. Each case runs with useAVX2
// off (the spec), then at each assembly tier (eachTier): AVX2 alone,
// and AVX2 with the row kernels' AVX-512 tier.

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

// eachTier runs check as one subtest per assembly tier: "avx2" with
// the AVX-512 tier off, then "avx512" with it on, skipped when this
// machine cannot run it. check compares against the Go spec, which
// withAVX2(false, ...) still computes inside it.
func eachTier(t *testing.T, check func(t *testing.T)) {
	t.Helper()
	needAVX2(t)
	for _, tier := range []string{"avx2", "avx512"} {
		t.Run(tier, func(t *testing.T) {
			restore, skip := rowTier(tier)
			if skip != "" {
				t.Skip(skip)
			}
			defer restore()
			check(t)
		})
	}
}

// rowTier switches the row kernels to a tier, "avx2" or "avx512", and
// returns the restore, or a reason the tier cannot run here.
func rowTier(tier string) (restore func(), skip string) {
	if !cpuHasAVX2() {
		return nil, "CPU or OS without AVX2: the Go kernels are the only path"
	}
	wide := tier == "avx512"
	if wide && !cpuHasAVX512() {
		return nil, "CPU or OS without AVX-512F and ZMM state: AVX2 is the widest tier here"
	}
	prev, prev512 := useAVX2, useAVX512
	useAVX2, useAVX512 = true, wide
	return func() { useAVX2, useAVX512 = prev, prev512 }, ""
}

// TestAVX512DetectionMatchesCPUInfo: Linux lists avx512f in
// /proc/cpuinfo only when the CPU has it and the kernel saves the
// opmask and ZMM state, which is what cpuHasAVX512 asks of CPUID and
// XCR0, so a wrong bit in either disagrees with the file. avx512bw is
// listed under the same OS condition, so cpuHasAVX512 together with
// cpuHasAVX512BW (the int8 row kernel's ZMM tier) must match it too.
func TestAVX512DetectionMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the flag list is read from Linux's /proc/cpuinfo")
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flag list to compare with: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(data), "\n") {
		if key, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	if got, listed := cpuHasAVX512(), slices.Contains(flags, "avx512f"); got != listed {
		t.Fatalf("cpuHasAVX512() = %v, but /proc/cpuinfo lists avx512f: %v", got, listed)
	}
	if got, listed := cpuHasAVX512() && cpuHasAVX512BW(), slices.Contains(flags, "avx512bw"); got != listed {
		t.Fatalf("cpuHasAVX512() && cpuHasAVX512BW() = %v, but /proc/cpuinfo lists avx512bw: %v", got, listed)
	}
}

// offset returns a copy of src in a tensor starting off floats into
// its backing array, so operands are seen at every 32-byte phase.
func offset(src *Tensor, off int) *Tensor {
	buf := make([]float32, off+len(src.Data))
	copy(buf[off:], src.Data)
	return FromSlice(buf[off:], src.Shape()...)
}

// eachPoolConfig runs check at the production gate (procs 0), then
// with the gate forced low at every worker count: rows band at high
// m, and at low m runGEMM's 16-float column bands reach the row
// kernel with a stride wider than the band.
func eachPoolConfig(t *testing.T, check func(procs int)) {
	t.Helper()
	check(0)
	pm := matmulParMin
	matmulParMin = 1
	defer func() { matmulParMin = pm }()
	for _, procs := range parProcs {
		withMaxProcs(t, procs, func() { check(procs) })
	}
}

type gemmShape = struct{ m, k, n int }

// avx2GEMMShapes are Small's conv GEMMs (forward, then the frozen-dX
// transposes), followed by adversarial ones: the worker-count suite's
// shapes (prime dims, single rows and columns) and every n in 1..300,
// so each combination of 128- and 64-wide ZMM tiles, 32- and 8-wide
// YMM tiles and scalar tail occurs.
func avx2GEMMShapes() []gemmShape {
	shapes := []gemmShape{
		{6, 147, 1440}, {12, 54, 360}, {12, 108, 360}, {24, 108, 90}, {24, 216, 90},
		{48, 216, 24}, {48, 432, 24}, {48, 432, 8},
		{432, 48, 8}, {432, 48, 24}, {216, 24, 90}, {108, 12, 360},
		{1, 257, 1}, {101, 3, 1},
	}
	shapes = append(shapes, gemmShapes...)
	for n := 1; n <= 300; n++ {
		shapes = append(shapes, gemmShape{3, 7, n})
	}
	return shapes
}

// checkGEMMAgainstGo holds one a·b variant to the Go kernels on every
// shape, at every tier: mul is MatMulInto, or MatMulTAInto with a
// stored [k, m].
func checkGEMMAgainstGo(t *testing.T, name string, seed uint64, transA bool, mul func(out, a, b *Tensor)) {
	eachTier(t, func(t *testing.T) { checkGEMMTier(t, name, seed, transA, mul) })
}

func checkGEMMTier(t *testing.T, name string, seed uint64, transA bool, mul func(out, a, b *Tensor)) {
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
			mul(got, a, b)
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
// tier, every n in 1..300 and every (dst, b) phase of a 32-byte vector,
// with a row stride wider than the band — a column band's call shape.
func TestAVX2RowKernelEveryOffset(t *testing.T) {
	eachTier(t, checkRowKernelEveryOffset)
}

func checkRowKernelEveryOffset(t *testing.T) {
	rng := NewRNG(0x0ff5)
	const k, ldb = 9, 311
	ai := make([]float32, k)
	bm := New(k, ldb)
	rng.FillUniform(bm, -2, 2)
	for i := range ai {
		ai[i] = float32(rng.Range(-2, 2))
	}
	ai[4] = 0
	ai[7] = math.Float32frombits(1 << 31)
	for n := 1; n <= 300; n++ {
		for off := 0; off < 8; off++ {
			jlo := off // band start inside the row: shifts b's phase too
			if jlo+n > ldb {
				continue
			}
			want := make([]float32, n)
			gemmRowGo(want, ai, nil, ldb, bm.Data[jlo:])
			got, intact := framed(off, n)
			gemmRow(got.Data, ai, nil, ldb, bm.Data[jlo:])
			if i := bitsEqual(want, got.Data); i >= 0 {
				t.Fatalf("row kernel n=%d off=%d: element %d differs", n, off, i)
			}
			if !intact() {
				t.Fatalf("row kernel n=%d off=%d: wrote outside dst", n, off)
			}
		}
	}
}

// TestAVX2RowOffKernelMatchesGo holds the row kernel to its Go spec at
// every tier, through both addressing modes, for every k in 1..60 and
// every n in 1..300 (each mix of ZMM tiles, YMM tiles and scalar
// tail), each n at every dst phase as k varies, with ±0 runs in a,
// NaN, ±Inf and denormals in both operands. The offset tables run
// forwards, backwards and repeat a row; the stride path (o_p = p·ld,
// rows overlapping when ld < n) is held to the offset mode's Go
// kernel over the table {p·ld}, so the two modes agree bit for bit.
func TestAVX2RowOffKernelMatchesGo(t *testing.T) {
	eachTier(t, checkRowOffKernel)
}

func checkRowOffKernel(t *testing.T) {
	rng := NewRNG(0x0ff7)
	const bLen = 1000
	b := make([]float32, bLen)
	for i := range b {
		b[i] = float32(rng.Range(-2, 2))
	}
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(1 << 31),
	}
	for i, v := range specials {
		b[157*i+11] = v
	}
	ai := make([]float32, 60)
	off, offLD := make([]int, 60), make([]int, 60)
	for k := 1; k <= 60; k++ {
		for n := 1; n <= 300; n++ {
			for i := range ai[:k] {
				ai[i] = float32(rng.Range(-2, 2))
			}
			sprinkleZeros(ai[:k])
			if k%7 == 3 {
				ai[k/2] = specials[(k+n)%len(specials)]
			}
			span := bLen - n
			ld := span / k
			for p := range off[:k] {
				switch (k + n) % 3 {
				case 0: // forwards, rows overlapping
					off[p] = p * span / k
				case 1: // backwards
					off[p] = span - p*span/k
				default: // arbitrary, repeats allowed
					off[p] = int(rng.Range(0, float64(span)))
				}
				offLD[p] = p * ld
			}
			for _, path := range []struct {
				name    string
				off     []int
				ld      int
				specOff []int
			}{{"off", off[:k], 0, off[:k]}, {"ld", nil, ld, offLD[:k]}} {
				want := make([]float32, n)
				gemmRowGo(want, ai[:k], path.specOff, 0, b)
				dOff := (k + n) % 8
				got, intact := framed(dOff, n)
				gemmRow(got.Data, ai[:k], path.off, path.ld, b)
				if i := sameBits(want, got.Data); i >= 0 {
					t.Fatalf("row kernel %s k=%d n=%d: element %d is %x, Go kernel gives %x",
						path.name, k, n, i, math.Float32bits(got.Data[i]), math.Float32bits(want[i]))
				}
				if !intact() {
					t.Fatalf("row kernel %s k=%d n=%d: wrote outside dst", path.name, k, n)
				}
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
// same output elements through the Go kernels and every tier — which
// is what the a[p] == 0 skip decides (0·Inf would be NaN) — and every
// finite element must still match bit for bit. The columns reach the
// 128- and 64-wide ZMM tiles and every AVX2 tile after them.
func TestAVX2NonFiniteMatchesGo(t *testing.T) {
	eachTier(t, checkNonFinite)
}

func checkNonFinite(t *testing.T) {
	rng := NewRNG(0x1f1f)
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	const m, k, n = 5, 13, 237 // ZMM [0,128) [128,192), YMM [192,224) [224,232), scalar [232,237)
	a := New(m, k)
	b := New(k, n)
	rng.FillUniform(a, -2, 2)
	rng.FillUniform(b, -2, 2)
	sprinkleZeros(a.Data)
	for _, j := range []int{3, 150, 200, 228, 235} {
		b.Data[0*n+j] = inf  // under a zero of a in row 0: skipped, stays finite
		b.Data[1*n+j] = -inf // under a −0 of a in row 0: skipped too
	}
	b.Data[2*n+40] = -inf // under a non-zero: the column goes to −Inf
	b.Data[5*n+17] = nan
	b.Data[7*n+33], b.Data[8*n+33] = inf, -inf // Inf − Inf in one column
	b.Data[6*n+170], b.Data[9*n+230] = nan, inf
	a.Data[3*k+6] = nan // a NaN weight is not zero: poisons its row
	at := Transpose(a)
	want, wantTA := New(m, n), New(m, n)
	withAVX2(false, func() { MatMulInto(want, a, b); MatMulTAInto(wantTA, at, b) })
	got, gotTA := New(m, n), New(m, n)
	MatMulInto(got, a, b)
	MatMulTAInto(gotTA, at, b)
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
// must keep empty operands away from it at every tier, in both
// addressing modes — and k == 0 must still zero dst, as the Go
// kernel's clear does, while n == 0 touches nothing.
func TestAVX2EmptyProducts(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		for _, off := range [][]int{nil, {}} {
			dst := []float32{7, 7, 7}
			gemmRow(dst, nil, off, 3, nil) // k == 0
			for i, v := range dst {
				if math.Float32bits(v) != 0 {
					t.Fatalf("k=0 off=%v: dst[%d] = %v, want +0", off, i, v)
				}
			}
			dst = []float32{7, 7, 7}
			int8Row(dst, nil, off, 3, nil, 1.5)
			for i, v := range dst {
				if math.Float32bits(v) != 0 {
					t.Fatalf("int8 k=0 off=%v: dst[%d] = %v, want +0", off, i, v)
				}
			}
		}
		gemmRow(nil, []float32{1, 2}, []int{0, 0}, 0, nil) // n == 0
		gemmRow(nil, []float32{1, 2}, nil, 2, make([]float32, 2))
		int8Row(nil, []int8{1, 2}, []int{0, 0}, 0, nil, 1)
		int8Row(nil, []int8{1, 2}, nil, 5, nil, 1)
		matmulRows(nil, nil, nil, 4, 4, 0, 0, 0, 4) // m == 0
		dst := []float32{7, 7, 7}
		matmulRows(dst, nil, nil, 0, 3, 0, 1, 0, 3) // k == 0 over a column band
		if dst[0] != 0 || dst[1] != 0 || dst[2] != 0 {
			t.Fatalf("matmulRows k=0: dst = %v, want zeros", dst)
		}
		addRow(nil, nil)
	})
}

// TestRowWrappersCheckBounds holds both row kernels' wrappers to their
// bounds contract at every tier and in both addressing modes: b must
// reach the last element the call reads — the highest offset plus
// n−1, or (k−1)·ld + n−1 with a stride — and the lowest offset, so a
// short b or a negative offset panics in the wrapper instead of being
// read by the assembly, while a b that ends exactly there is accepted.
// The n cover the ZMM prefix, the YMM tiles and the float kernel's
// scalar tail. The short b keeps the full b's capacity: the int8
// kernel hands n < 8 to Go, which must bound its reads by len(b) too.
func TestRowWrappersCheckBounds(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		panics := func(f func()) (p bool) {
			defer func() { p = recover() != nil }()
			f()
			return false
		}
		const ld = 150
		a := []float32{1, -2, 3, 0.5, 4}
		a8 := []int8{1, -2, 3, 5, 4}
		offs := []int{40, 7, 90, 12, 55} // the highest is not the last
		for _, n := range []int{3, 8, 20, 64, 130} {
			for _, mode := range []struct {
				name string
				off  []int
				ld   int
				last int
			}{{"off", offs, 0, 90 + n - 1}, {"ld", nil, ld, (len(a)-1)*ld + n - 1}} {
				b := make([]float32, mode.last+1)
				b8 := make([]int8, mode.last+1)
				dst := make([]float32, n)
				if panics(func() { gemmRow(dst, a, mode.off, mode.ld, b) }) ||
					panics(func() { int8Row(dst, a8, mode.off, mode.ld, b8, 1) }) {
					t.Fatalf("%s n=%d: b of %d elements panics, but reaches the last one read", mode.name, n, len(b))
				}
				if !panics(func() { gemmRow(dst, a, mode.off, mode.ld, b[:mode.last]) }) {
					t.Fatalf("%s n=%d: gemmRow read b[%d] of a %d-element b", mode.name, n, mode.last, mode.last)
				}
				if !panics(func() { int8Row(dst, a8, mode.off, mode.ld, b8[:mode.last], 1) }) {
					t.Fatalf("%s n=%d: int8Row read b[%d] of a %d-element b", mode.name, n, mode.last, mode.last)
				}
			}
			neg := []int{40, 7, -1, 12, 55}
			b, b8 := make([]float32, 200), make([]int8, 200)
			if !panics(func() { gemmRow(make([]float32, n), a, neg, 0, b) }) {
				t.Fatalf("n=%d: gemmRow accepted a negative offset", n)
			}
			if !panics(func() { int8Row(make([]float32, n), a8, neg, 0, b8, 1) }) {
				t.Fatalf("n=%d: int8Row accepted a negative offset", n)
			}
		}
	})
}

// TestInt8RowMatchesGo holds the int8 row kernel to int8RowGo bit for
// bit at every tier, through both addressing modes (an offset table
// running forwards, backwards or at random with repeats, and o_p =
// p·ld), for n in 1..70 and at 255, 256, 257 and 600 (every mix of
// ZMM, 32-, 16- and 8-column tiles, the overlapping last tile, and
// rows under 8 columns that stay in Go) and k of 1, odd and
// even, and 2304. Three operand patterns run: random values with zero
// pairs and lone zeros, every value at ±127, and −128 operands whose
// sums pass 2²⁴ at k = 2304, so the int32 → float32 rounding differs
// from the exact sum and must match too.
func TestInt8RowMatchesGo(t *testing.T) {
	eachTier(t, checkInt8Row)
}

func checkInt8Row(t *testing.T) {
	rng := NewRNG(0x1e81)
	ns := []int{255, 256, 257, 600}
	for n := 1; n <= 70; n++ {
		ns = append(ns, n)
	}
	ks := []int{1, 2, 3, 8, 9, 54, 2304}
	for mode := 0; mode < 3; mode++ {
		q := func() int8 {
			switch mode {
			case 1:
				return int8(127 - 254*rng.Intn(2))
			case 2:
				if rng.Intn(8) == 0 {
					return int8(rng.Intn(256) - 128)
				}
				return -128
			}
			return int8(rng.Intn(256) - 128)
		}
		for _, k := range ks {
			ai := make([]int8, k)
			for i := range ai {
				ai[i] = q()
				if mode == 0 && (i%9 == 0 || i%9 == 1 || i%9 == 4) {
					ai[i] = 0 // a zero pair at even k, then a lone zero
				}
			}
			for _, n := range ns {
				if k == 2304 && n > 70 && n != 600 {
					continue
				}
				const span = 1000
				b := make([]int8, max((k-1)*n+n, span+n)+7)
				for i := range b {
					b[i] = q()
				}
				off := make([]int, k)
				for p := range off {
					switch (k + n) % 3 {
					case 0:
						off[p] = p * span / k
					case 1:
						off[p] = span - p*span/k
					default:
						off[p] = rng.Intn(span + 1)
					}
				}
				scale := float32(rng.Float64()) + 0.01
				if n%5 == 0 {
					scale = -scale
				}
				for _, path := range []struct {
					name string
					off  []int
					ld   int
					b    []int8
				}{{"off", off, 0, b[n%7:]}, {"ld", nil, n, b[n%7:]}} {
					want := make([]float32, n)
					int8RowGo(want, ai, path.off, path.ld, path.b, scale)
					got, intact := framed((k+n)%8, n)
					int8Row(got.Data, ai, path.off, path.ld, path.b, scale)
					if i := bitsEqual(want, got.Data); i >= 0 {
						t.Fatalf("int8 row %s k=%d n=%d: element %d is %v, int8RowGo gives %v", path.name, k, n, i, got.Data[i], want[i])
					}
					if !intact() {
						t.Fatalf("int8 row %s k=%d n=%d: wrote outside dst", path.name, k, n)
					}
				}
			}
		}
	}
}
