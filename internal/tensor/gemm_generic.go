//go:build !amd64 || purego

package tensor

// Without the amd64 assembly (other architectures, or -tags purego)
// the Go kernels are the only implementation.

// Kernels names the kernel tiers this process runs: here always "go".
func Kernels() string { return "go" }

func gemmRow(di, ai []float32, off []int, ld int, b []float32) { gemmRowGo(di, ai, off, ld, b) }

func gemmRowSpan(di, ai []float32, off []int, ld int, b []float32, _, _ int) {
	gemmRowGo(di, ai, off, ld, b)
}

func int8Row(dst []float32, ai []int8, off []int, ld int, b []int8, scale float32) {
	int8RowGo(dst, ai, off, ld, b, scale)
}

func int8RowSpan(dst []float32, ai []int8, off []int, ld int, b []int8, scale float32, _, _ int) {
	int8RowGo(dst, ai, off, ld, b, scale)
}

func dwLanes(acc, gt, lines []float32, hw, L, nr int) { dwLanesGo(acc, gt, lines, hw, L, nr) }

func addRow(dst, src []float32) { addRowGo(dst, src) }
