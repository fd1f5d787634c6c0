//go:build !amd64 || purego

package tensor

// Without the amd64 assembly no prefix is vectorized: each *Vec
// reports 0 elements done and the Go loops in elem.go take everything.

func reluIntoVec(dst, src []float32) int      { return 0 }
func reluClampVec(x []float32) int            { return 0 }
func reluGradIntoVec(dst, y, g []float32) int { return 0 }
func addReLUIntoVec(dst, a, b []float32) int  { return 0 }
func addReLUClampVec(a, b []float32) int      { return 0 }
func bnGradIntoVec(dx, g, xhat []float32, k, cnt, mom, sumDY, sumDYX float32) int {
	return 0
}
func bnAffineIntoVec(out, xhat, x []float32, mean, invStd, gamma, beta float32) int {
	return 0
}
