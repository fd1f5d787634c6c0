//go:build amd64 && !purego

package tensor

import "fmt"

// useAVX2 selects the assembly kernels in gemm_amd64.s over the Go
// ones. They are bitwise interchangeable (see README.md), so this is
// a property of the machine, decided once at init; the bitwise tests
// flip it to compare the two.
var useAVX2 = cpuHasAVX2()

// useAVX512 adds the AVX-512 tier of the row kernels and the lane
// kernel on top of AVX2, decided the same way and just as
// interchangeable.
var useAVX512 = useAVX2 && cpuHasAVX512()

// avx512BW says the CPU has AVX512BW, which the int8 row kernel's ZMM
// tier needs on top of the AVX-512 tier's AVX512F and ZMM state; the
// float kernels never ask for it.
var avx512BW = cpuHasAVX512BW()

func cpuHasAVX2() bool

func cpuHasAVX512() bool

func cpuHasAVX512BW() bool

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
func gemmRowAVX2(dst, a, b *float32, off *int, offStep, rowStep, k, n int)

//go:noescape
func gemmRowAVX512(dst, a, b *float32, off *int, offStep, rowStep, k, n int)

//go:noescape
func dwLanesAVX2(acc, gt, lines *float32, hw, nl, ldg, nr int)

//go:noescape
func dwLanesAVX512(acc, gt, lines *float32, hw, nl, ldg, nr int)

//go:noescape
func int8RowAVX2(dst *float32, a, b *int8, off *int, offStep, rowStep, k, n int, scale float32)

//go:noescape
func int8RowAVX512(dst *float32, a, b *int8, off *int, offStep, rowStep, k, n int, scale float32)

//go:noescape
func addAVX2(dst, src *float32, n int)

// The wrappers keep the assembly inside the slices: they index the
// last element each routine touches (so a short operand panics here,
// as it would in the Go kernel) and hand empty products to the Go
// kernels, which the assembly's &x[0] arguments cannot express. With
// the AVX-512 tier on, the row kernels' first w = n &^ 63 columns run
// in ZMM tiles and the AVX2 routine takes the rest, re-based by w
// columns in dst and b.

// gemmRow runs the float row kernel. Both addressing modes reach the
// assembly as a table it walks, as in int8Row: the offset
// table itself, one entry (8 bytes) per coefficient, or for o_p = p·ld
// the one-entry table {0} held still while the row advances 4·ld bytes
// per coefficient.
func gemmRow(di, ai []float32, off []int, ld int, b []float32) {
	k, n := len(ai), len(di)
	if !useAVX2 || k == 0 || n == 0 {
		gemmRowGo(di, ai, off, ld, b)
		return
	}
	lo, hi := rowSpan(off, ld, k)
	_ = b[lo]
	_ = b[hi+n-1]
	var zero [1]int
	tab, offStep, rowStep := &zero[0], 0, 4*ld
	if off != nil {
		tab, offStep, rowStep = &off[0], 8, 0
	}
	w := 0
	if useAVX512 {
		w = n &^ 63
	}
	if w > 0 {
		gemmRowAVX512(&di[0], &ai[0], &b[0], tab, offStep, rowStep, k, w)
	}
	if w < n {
		gemmRowAVX2(&di[w], &ai[0], &b[w], tab, offStep, rowStep, k, n-w)
	}
}

// rowSpan is the lowest and the highest row offset o_p of a row kernel
// call over k > 0 coefficients: off's extremes, or 0 and (k−1)·ld when
// off is nil. The wrappers check b at the lowest and at the highest
// plus n−1, whichever coefficients are zero, so they are stricter than
// the Go kernels they dispatch to.
func rowSpan(off []int, ld, k int) (lo, hi int) {
	if off == nil {
		return 0, (k - 1) * ld
	}
	lo, hi = off[k-1], off[k-1]
	for _, o := range off[:k] {
		lo, hi = min(lo, o), max(hi, o)
	}
	return lo, hi
}

// int8Row runs the int8 row kernel in assembly whenever a row has 8
// columns or more: with the AVX-512 tier on and AVX512BW, the first
// n &^ 63 columns in 64-column ZMM tiles, then the AVX2 routine's 32-,
// 16- and 8-column tiles up to n &^ 7, re-based by that many columns in
// dst and b. The n mod 8 columns after them run as one more 8-column
// tile that ends at column n: it stores again up to seven columns the
// tiles before it stored, with the same bits, because each column's
// sum is exact whichever tile computes it. Rows under 8 columns (a
// 1×1 grid, Linear's one-column product) stay in int8RowGo. Both
// addressing modes reach the assembly as a table it walks: the offset
// table itself, a pair (16 bytes) per step, or for o_p = p·ld the
// two-entry table {0, ld} held still while the rows advance by 2·ld per
// pair. It checks b as gemmRow does (rowSpan).
func int8Row(dst []float32, ai []int8, off []int, ld int, b []int8, scale float32) {
	k, n := len(ai), len(dst)
	if !useAVX2 || k == 0 || n < 8 {
		int8RowGo(dst, ai, off, ld, b, scale)
		return
	}
	lo, hi := rowSpan(off, ld, k)
	_ = b[lo]
	_ = b[hi+n-1]
	ldPair := [2]int{0, ld}
	tab, offStep, rowStep := &ldPair[0], 0, 2*ld
	if off != nil {
		tab, offStep, rowStep = &off[0], 16, 0
	}
	w, t := 0, n&^7
	if useAVX512 && avx512BW {
		w = n &^ 63
	}
	if w > 0 {
		int8RowAVX512(&dst[0], &ai[0], &b[0], tab, offStep, rowStep, k, w, scale)
	}
	if w < t {
		int8RowAVX2(&dst[w], &ai[0], &b[w], tab, offStep, rowStep, k, t-w, scale)
	}
	if t < n {
		int8RowAVX2(&dst[n-8], &ai[0], &b[n-8], tab, offStep, rowStep, k, 8, scale)
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
