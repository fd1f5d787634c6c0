package tensor

// Elementwise passes of the conv–BN–ReLU–residual sandwich. Each
// exported routine is its Go loop below — the spec — with, on amd64,
// the first len &^ 7 elements handed to an AVX2 twin in elem_amd64.s
// that performs the same operations in the same order per lane (see
// README.md, "The assembly contract"); the Go loop always takes the
// tail, so there is one tail implementation. Operands must have equal
// lengths and outputs must not partially overlap inputs.

// sameLen panics unless an operand of length l is as long as the
// routine's first operand, n.
func sameLen(name string, n, l int) {
	if l != n {
		panic("tensor: " + name + " length mismatch")
	}
}

// ReLUInto writes dst[i] = src[i] if src[i] > 0, else +0 (so NaN and
// −0 become +0): the Train/Adapt rule.
func ReLUInto(dst, src []float32) {
	sameLen("ReLUInto", len(dst), len(src))
	p := reluIntoVec(dst, src)
	reluIntoGo(dst[p:], src[p:])
}

func reluIntoGo(dst, src []float32) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUClamp zeroes every x[i] <= 0 in place (−0 becomes +0, NaN is
// kept): the Infer rule, which differs from ReLUInto's on NaN.
func ReLUClamp(x []float32) {
	p := reluClampVec(x)
	reluClampGo(x[p:])
}

func reluClampGo(x []float32) {
	for i, v := range x {
		if v <= 0 {
			x[i] = 0
		}
	}
}

// ReLUGradInto gates a gradient by a ReLU output: dst[i] = g[i] if
// y[i] > 0, else +0. For the y that ReLUInto or AddReLUInto wrote,
// y > 0 exactly where the activation's input was > 0.
func ReLUGradInto(dst, y, g []float32) {
	sameLen("ReLUGradInto", len(dst), len(y))
	sameLen("ReLUGradInto", len(dst), len(g))
	p := reluGradIntoVec(dst, y, g)
	reluGradIntoGo(dst[p:], y[p:], g[p:])
}

func reluGradIntoGo(dst, y, g []float32) {
	for i, v := range g {
		if y[i] > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// AddReLUInto is the residual add fused with ReLUInto:
// dst[i] = ReLU(a[i] + b[i]).
func AddReLUInto(dst, a, b []float32) {
	sameLen("AddReLUInto", len(dst), len(a))
	sameLen("AddReLUInto", len(dst), len(b))
	p := addReLUIntoVec(dst, a, b)
	addReLUIntoGo(dst[p:], a[p:], b[p:])
}

func addReLUIntoGo(dst, a, b []float32) {
	for i, av := range a {
		v := av + b[i]
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// AddReLUClamp is the residual add fused with ReLUClamp, in place:
// a[i] += b[i], then a[i] <= 0 becomes +0.
func AddReLUClamp(a, b []float32) {
	sameLen("AddReLUClamp", len(a), len(b))
	p := addReLUClampVec(a, b)
	addReLUClampGo(a[p:], b[p:])
}

func addReLUClampGo(a, b []float32) {
	for i, bv := range b {
		v := a[i] + bv
		if v <= 0 {
			v = 0
		}
		a[i] = v
	}
}

// BNAffineInto normalizes one channel plane: xh = (x[i]−mean)·invStd,
// out[i] = gamma·xh + beta, and xhat[i] = xh unless xhat is nil (the
// infer pass keeps no x̂).
func BNAffineInto(out, xhat, x []float32, mean, invStd, gamma, beta float32) {
	sameLen("BNAffineInto", len(x), len(out))
	if xhat != nil {
		sameLen("BNAffineInto", len(x), len(xhat))
	}
	p := bnAffineIntoVec(out, xhat, x, mean, invStd, gamma, beta)
	if xhat != nil {
		xhat = xhat[p:]
	}
	bnAffineIntoGo(out[p:], xhat, x[p:], mean, invStd, gamma, beta)
}

func bnAffineIntoGo(out, xhat, x []float32, mean, invStd, gamma, beta float32) {
	if xhat == nil {
		for i, v := range x {
			xh := (v - mean) * invStd
			out[i] = gamma*xh + beta
		}
		return
	}
	for i, v := range x {
		xh := (v - mean) * invStd
		xhat[i] = xh
		out[i] = gamma*xh + beta
	}
}

// BNGradInto writes one channel plane of the batch-statistics BN input
// gradient: dx[i] = k·(cnt·g[i] − mom·(sumDY + xhat[i]·sumDYX)).
func BNGradInto(dx, g, xhat []float32, k, cnt, mom, sumDY, sumDYX float32) {
	sameLen("BNGradInto", len(dx), len(g))
	sameLen("BNGradInto", len(dx), len(xhat))
	p := bnGradIntoVec(dx, g, xhat, k, cnt, mom, sumDY, sumDYX)
	bnGradIntoGo(dx[p:], g[p:], xhat[p:], k, cnt, mom, sumDY, sumDYX)
}

func bnGradIntoGo(dx, g, xhat []float32, k, cnt, mom, sumDY, sumDYX float32) {
	for i, gv := range g {
		dx[i] = k * (cnt*gv - mom*(sumDY+xhat[i]*sumDYX))
	}
}
