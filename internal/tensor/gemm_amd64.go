//go:build amd64 && !purego

package tensor

// useAVX2 selects the assembly kernels in gemm_amd64.s over the Go
// ones. They are bitwise interchangeable (see README.md), so this is
// a property of the machine, decided once at init; the bitwise tests
// flip it to compare the two.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func gemmRowAVX2(dst, a, b *float32, k, n, ldb int)

//go:noescape
func axpyAVX2(dst, b *float32, av float32, n int)

//go:noescape
func addAVX2(dst, src *float32, n int)

// The wrappers keep the assembly inside the slices: they index the
// last element each routine touches (so a short operand panics here,
// as it would in the Go kernel) and hand empty products to the Go
// kernels, which the assembly's &x[0] arguments cannot express.

func gemmRow(di, ai, b []float32, ldb int) {
	k, n := len(ai), len(di)
	if !useAVX2 || k == 0 || n == 0 {
		gemmRowGo(di, ai, b, ldb)
		return
	}
	_ = b[(k-1)*ldb+n-1]
	gemmRowAVX2(&di[0], &ai[0], &b[0], k, n, ldb)
}

func axpy(di, bp []float32, av float32) {
	n := len(di)
	if !useAVX2 || n == 0 {
		axpyRow(di, bp, av)
		return
	}
	_ = bp[n-1]
	axpyAVX2(&di[0], &bp[0], av, n)
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
