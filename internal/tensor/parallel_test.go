package tensor

import (
	"math"
	"runtime"
	"testing"
)

// Cross-kernel bitwise determinism suite: every parallel kernel must
// produce byte-identical output at any worker count, because band
// boundaries only decide WHO computes an output element, never the
// order of that element's accumulation (see internal/tensor/README.md
// and internal/par). The suite lowers the serial-threshold gate var
// so even adversarial small shapes — prime dims, fewer rows than
// workers, empty remainder bands — take the pooled path, and compares
// against a golden computed with the gate at +∞ (strictly serial).

// lowGates forces every kernel through the pooled path and restores
// the production gate after the test.
func lowGates(t *testing.T) {
	t.Helper()
	pm := matmulParMin
	matmulParMin = 1
	t.Cleanup(func() { matmulParMin = pm })
}

// serialGates disables the pooled path entirely.
func serialGates(t *testing.T) func() {
	pm := matmulParMin
	matmulParMin = math.MaxInt
	return func() { matmulParMin = pm }
}

func withMaxProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
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

// bitsEqual reports exact bitwise equality (NaN-safe, ±0-distinguishing).
func bitsEqual(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// sameBits compares got against the Go kernels' want. With finite
// inputs that is exact bit equality; where want is NaN only NaN-ness
// is compared, because the payload that survives a commutative SSE
// add depends on an operand order the compiler is free to choose.
func sameBits(want, got []float32) int {
	for i := range want {
		if want[i] != want[i] {
			if got[i] == got[i] {
				return i
			}
			continue
		}
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			return i
		}
	}
	return -1
}

// sprinkleZeros writes runs of +0 and −0 into a so the kernels'
// zero-skip is crossed in both directions.
func sprinkleZeros(a []float32) {
	negZero := math.Float32frombits(1 << 31)
	for i := 0; i < len(a); i += 11 {
		a[i] = 0
		if i+1 < len(a) {
			a[i+1] = negZero
		}
	}
}

var parProcs = []int{1, 2, 3, 8}

// gemmShapes covers both banding axes: m ≥ 2·width rows (row bands),
// wide-and-short (column bands), prime dims, m < workers, k=0-adjacent
// tiny dims and single elements.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{2, 3, 5},
	{7, 11, 13},
	{3, 17, 97}, // fewer rows than workers at 8 procs → column bands
	{37, 5, 4},  // row bands with remainder
	{8, 64, 8},
	{13, 1, 29},
	{1, 128, 101}, // single row: must fall to column banding
}

func TestMatMulBitwiseAcrossWorkers(t *testing.T) {
	rng := NewRNG(0x5eed)
	for _, sh := range gemmShapes {
		a := New(sh.m, sh.k)
		b := New(sh.k, sh.n)
		rng.FillUniform(a, -2, 2)
		rng.FillUniform(b, -2, 2)
		golden := New(sh.m, sh.n)
		restore := serialGates(t)
		MatMulInto(golden, a, b)
		restore()
		lowGates(t)
		for _, procs := range parProcs {
			withMaxProcs(t, procs, func() {
				got := New(sh.m, sh.n)
				// Poison dst: the kernel must fully overwrite it.
				for i := range got.Data {
					got.Data[i] = float32(math.NaN())
				}
				MatMulInto(got, a, b)
				if i := bitsEqual(golden.Data, got.Data); i >= 0 {
					t.Fatalf("MatMul %dx%dx%d procs=%d: element %d differs: %v vs %v",
						sh.m, sh.k, sh.n, procs, i, golden.Data[i], got.Data[i])
				}
			})
		}
	}
}

// TestMatMulTABitwiseAcrossWorkers also holds MatMulInto over the
// materialized transpose to the same bits: the conv backward
// (ConvDXInto) runs MatMulInto's row kernel over a transposed weight
// where a trainable conv once ran MatMulTAInto, which is only sound
// because per output row both apply the same axpy updates in the same
// increasing-p order with the same zero-skip.
func TestMatMulTABitwiseAcrossWorkers(t *testing.T) {
	rng := NewRNG(0xabcd)
	for _, sh := range gemmShapes {
		// TA: a is [k, m], out is [m, n]
		a := New(sh.k, sh.m)
		b := New(sh.k, sh.n)
		rng.FillUniform(a, -2, 2)
		rng.FillUniform(b, -2, 2)
		for i := 0; i < len(a.Data); i += 5 {
			a.Data[i] = 0 // exercise the zero-skip on both kernels
		}
		at := New(sh.m, sh.k)
		for p := 0; p < sh.k; p++ {
			for i := 0; i < sh.m; i++ {
				at.Data[i*sh.k+p] = a.Data[p*sh.m+i]
			}
		}
		golden := New(sh.m, sh.n)
		restore := serialGates(t)
		MatMulTAInto(golden, a, b)
		restore()
		lowGates(t)
		for _, procs := range parProcs {
			withMaxProcs(t, procs, func() {
				got := New(sh.m, sh.n)
				for i := range got.Data {
					got.Data[i] = float32(math.NaN())
				}
				MatMulTAInto(got, a, b)
				if i := bitsEqual(golden.Data, got.Data); i >= 0 {
					t.Fatalf("MatMulTA %dx%dx%d procs=%d: element %d differs",
						sh.m, sh.k, sh.n, procs, i)
				}
				MatMulInto(got, at, b)
				if i := bitsEqual(golden.Data, got.Data); i >= 0 {
					t.Fatalf("MatMul over the transpose %dx%dx%d procs=%d: element %d differs from MatMulTA",
						sh.m, sh.k, sh.n, procs, i)
				}
			})
		}
	}
}

func TestMatMulTBBitwiseAcrossWorkers(t *testing.T) {
	rng := NewRNG(0x7777)
	for _, sh := range gemmShapes {
		a := New(sh.m, sh.k)
		b := New(sh.n, sh.k) // TB: b is [n, k]
		rng.FillUniform(a, -2, 2)
		rng.FillUniform(b, -2, 2)
		golden := New(sh.m, sh.n)
		restore := serialGates(t)
		MatMulTBInto(golden, a, b)
		restore()
		lowGates(t)
		for _, procs := range parProcs {
			withMaxProcs(t, procs, func() {
				got := New(sh.m, sh.n)
				MatMulTBInto(got, a, b)
				if i := bitsEqual(golden.Data, got.Data); i >= 0 {
					t.Fatalf("MatMulTB %dx%dx%d procs=%d: element %d differs",
						sh.m, sh.k, sh.n, procs, i)
				}
			})
		}
	}
}

// lowerShapes stresses the padded/unpadded zero-skip split and odd
// geometries: stride > kernel, asymmetric padding reach, rows < workers.
var lowerShapes = []struct {
	n, c, h, w int
	g          ConvGeom
}{
	{1, 1, 5, 5, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}},
	{2, 3, 7, 11, ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}},
	{1, 2, 8, 8, ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1}}, // unpadded 1x1: no zeroing at all
	{3, 1, 6, 9, ConvGeom{KH: 2, KW: 2, SH: 2, SW: 3}}, // unpadded, stride > kernel in x
	{1, 5, 13, 7, ConvGeom{KH: 5, KW: 3, SH: 1, SW: 2, PH: 2, PW: 1}},
	{2, 1, 3, 3, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}}, // 9 rows < width? no: rows=9
	{1, 1, 4, 4, ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2}},               // rows=4 < 8 workers
}

func TestInt8KernelsBitwiseAcrossWorkers(t *testing.T) {
	rng := NewRNG(0x8b17)
	for _, sh := range gemmShapes {
		a := make([]int8, sh.m*sh.k)
		b := make([]int8, sh.k*sh.n)
		aScales := make([]float32, sh.m)
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
		}
		for i := range b {
			b[i] = int8(rng.Intn(255) - 127)
		}
		for i := range aScales {
			aScales[i] = float32(rng.Float64()) + 0.01
		}
		xScale := float32(rng.Float64()) + 0.01
		goldenMM := New(sh.m, sh.n)
		restore := serialGates(t)
		Int8MatMulInto(goldenMM, a, aScales, b, xScale, sh.m, sh.k, sh.n)
		restore()
		lowGates(t)
		for _, procs := range parProcs {
			withMaxProcs(t, procs, func() {
				got := New(sh.m, sh.n)
				Int8MatMulInto(got, a, aScales, b, xScale, sh.m, sh.k, sh.n)
				if i := bitsEqual(goldenMM.Data, got.Data); i >= 0 {
					t.Fatalf("Int8MatMul %dx%dx%d procs=%d: element %d differs",
						sh.m, sh.k, sh.n, procs, i)
				}
			})
		}
	}
}
