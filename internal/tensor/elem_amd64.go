//go:build amd64 && !purego

package tensor

// Each *Vec wrapper runs the AVX2 twin of an elem.go loop over the
// first len &^ 7 elements and reports how many it did (0 when the
// assembly is off or there is no whole vector). The assembly requires
// n > 0 and n%8 == 0; the callers in elem.go have checked that every
// operand is as long as the first.

//go:noescape
func reluIntoAVX2(dst, src *float32, n int)

//go:noescape
func reluClampAVX2(x *float32, n int)

//go:noescape
func reluGradIntoAVX2(dst, y, dy *float32, n int)

//go:noescape
func addReLUIntoAVX2(dst, a, b *float32, n int)

//go:noescape
func addReLUClampAVX2(a, b *float32, n int)

// xhat may be nil: no x̂ is stored.
//
//go:noescape
func bnAffineIntoAVX2(out, xhat, x *float32, n int, mean, invStd, gamma, beta float32)

//go:noescape
func bnGradIntoAVX2(dx, dy, xhat *float32, n int, k, cnt, mom, sumDY, sumDYX float32)

// vecLen is the prefix of n elements the assembly takes.
func vecLen(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 7
}

func reluIntoVec(dst, src []float32) int {
	p := vecLen(len(src))
	if p > 0 {
		reluIntoAVX2(&dst[0], &src[0], p)
	}
	return p
}

func reluClampVec(x []float32) int {
	p := vecLen(len(x))
	if p > 0 {
		reluClampAVX2(&x[0], p)
	}
	return p
}

func reluGradIntoVec(dst, y, g []float32) int {
	p := vecLen(len(g))
	if p > 0 {
		reluGradIntoAVX2(&dst[0], &y[0], &g[0], p)
	}
	return p
}

func addReLUIntoVec(dst, a, b []float32) int {
	p := vecLen(len(a))
	if p > 0 {
		addReLUIntoAVX2(&dst[0], &a[0], &b[0], p)
	}
	return p
}

func addReLUClampVec(a, b []float32) int {
	p := vecLen(len(a))
	if p > 0 {
		addReLUClampAVX2(&a[0], &b[0], p)
	}
	return p
}

func bnAffineIntoVec(out, xhat, x []float32, mean, invStd, gamma, beta float32) int {
	p := vecLen(len(x))
	if p > 0 {
		var hp *float32
		if xhat != nil {
			hp = &xhat[0]
		}
		bnAffineIntoAVX2(&out[0], hp, &x[0], p, mean, invStd, gamma, beta)
	}
	return p
}

func bnGradIntoVec(dx, g, xhat []float32, k, cnt, mom, sumDY, sumDYX float32) int {
	p := vecLen(len(g))
	if p > 0 {
		bnGradIntoAVX2(&dx[0], &g[0], &xhat[0], p, k, cnt, mom, sumDY, sumDYX)
	}
	return p
}
