//go:build !amd64 || purego

package tensor

// Without the amd64 assembly (other architectures, or -tags purego)
// the Go kernels are the only implementation.

// Kernels names the kernel tiers this process runs: here always "go".
func Kernels() string { return "go" }

func gemmRow(di, ai, b []float32, ldb int) { gemmRowGo(di, ai, b, ldb) }

func gemmRowOff(di, ai []float32, off []int, b []float32) { gemmRowOffGo(di, ai, off, b) }

func dwLanes(acc, gt, lines []float32, hw, L, nr int) { dwLanesGo(acc, gt, lines, hw, L, nr) }

func addRow(dst, src []float32) { addRowGo(dst, src) }
