//go:build amd64 && !purego

package tensor

import "fmt"

// useAVX2 selects the assembly kernels in gemm_amd64.s over the Go
// ones. They are bitwise interchangeable (see README.md), so this is
// a property of the machine, decided once at init; the bitwise tests
// flip it to compare the two.
var useAVX2 = cpuHasAVX2()

// useAVX512 adds the AVX-512 tier of the two row kernels on top of
// AVX2, decided the same way and just as interchangeable.
var useAVX512 = useAVX2 && cpuHasAVX512()

func cpuHasAVX2() bool

func cpuHasAVX512() bool

// Kernels names the kernel tiers this process runs: "go",
// "avx2" or "avx2+avx512". It is host-dependent, so it belongs in
// host-time reports only, never in a golden.
func Kernels() string {
	switch {
	case useAVX512:
		return "avx2+avx512"
	case useAVX2:
		return "avx2"
	}
	return "go"
}

//go:noescape
func gemmRowAVX2(dst, a, b *float32, k, n, ldb int)

//go:noescape
func gemmRowOffAVX2(dst, a, b *float32, off *int, k, n int)

//go:noescape
func gemmRowAVX512(dst, a, b *float32, k, n, ldb int)

//go:noescape
func gemmRowOffAVX512(dst, a, b *float32, off *int, k, n int)

//go:noescape
func dwLanesAVX2(acc, gt, lines *float32, hw, nl, ldg, nr int)

//go:noescape
func dwLanesAVX512(acc, gt, lines *float32, hw, nl, ldg, nr int)

//go:noescape
func addAVX2(dst, src *float32, n int)

// The wrappers keep the assembly inside the slices: they index the
// last element each routine touches (so a short operand panics here,
// as it would in the Go kernel) and hand empty products to the Go
// kernels, which the assembly's &x[0] arguments cannot express. With
// the AVX-512 tier on, the row kernels' first w = n &^ 63 columns run
// in ZMM tiles and the AVX2 routine takes the rest, re-based by w
// columns in dst and b.

func gemmRow(di, ai, b []float32, ldb int) {
	k, n := len(ai), len(di)
	if !useAVX2 || k == 0 || n == 0 {
		gemmRowGo(di, ai, b, ldb)
		return
	}
	_ = b[(k-1)*ldb+n-1]
	w := wideCols(n)
	if w > 0 {
		gemmRowAVX512(&di[0], &ai[0], &b[0], k, w, ldb)
	}
	if w < n {
		gemmRowAVX2(&di[w], &ai[0], &b[w], k, n-w, ldb)
	}
}

// wideCols is the prefix of n columns the AVX-512 tier takes.
func wideCols(n int) int {
	if !useAVX512 {
		return 0
	}
	return n &^ 63
}

// gemmRowOff checks every offset, not only those of non-zero
// coefficients, so it is stricter than the Go kernel it dispatches to.
func gemmRowOff(di, ai []float32, off []int, b []float32) {
	k, n := len(ai), len(di)
	if !useAVX2 || k == 0 || n == 0 {
		gemmRowOffGo(di, ai, off, b)
		return
	}
	lo, hi := off[k-1], off[k-1]
	for _, o := range off[:k] {
		lo, hi = min(lo, o), max(hi, o)
	}
	_ = b[lo]
	_ = b[hi+n-1]
	w := wideCols(n)
	if w > 0 {
		gemmRowOffAVX512(&di[0], &ai[0], &b[0], &off[0], k, w)
	}
	if w < n {
		gemmRowOffAVX2(&di[w], &ai[0], &b[w], &off[0], k, n-w)
	}
}

// dwLanes runs the lane kernel: AVX2 eight lanes per vector, with the
// AVX-512 tier the first L &^ 15 lanes sixteen per vector and the
// AVX2 routine the eight after them, re-based by that many lanes in
// acc and gt. L must be a whole number of 8-lane blocks.
func dwLanes(acc, gt, lines []float32, hw, L, nr int) {
	if L%8 != 0 {
		panic(fmt.Sprintf("tensor: dwLanes over %d lanes, want whole 8-lane blocks", L))
	}
	if !useAVX2 || hw == 0 || L == 0 || nr == 0 {
		dwLanesGo(acc, gt, lines, hw, L, nr)
		return
	}
	_ = acc[nr*L-1]
	_ = gt[hw*L-1]
	_ = lines[nr*hw-1]
	w := 0
	if useAVX512 {
		w = L &^ 15
	}
	if w > 0 {
		dwLanesAVX512(&acc[0], &gt[0], &lines[0], hw, w, L, nr)
	}
	if w < L {
		dwLanesAVX2(&acc[w], &gt[w], &lines[0], hw, L-w, L, nr)
	}
}

func addRow(dst, src []float32) {
	n := len(dst)
	if !useAVX2 || n == 0 {
		addRowGo(dst, src)
		return
	}
	_ = src[n-1]
	addAVX2(&dst[0], &src[0], n)
}
