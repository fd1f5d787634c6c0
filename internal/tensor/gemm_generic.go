//go:build !amd64 || purego

package tensor

// Without the amd64 assembly (other architectures, or -tags purego)
// the Go kernels are the only implementation.

func gemmRow(di, ai, b []float32, ldb int) { gemmRowGo(di, ai, b, ldb) }

func gemmRowOff(di, ai []float32, off []int, b []float32) { gemmRowOffGo(di, ai, off, b) }

func axpy(di, bp []float32, av float32) { axpyRow(di, bp, av) }

func addRow(dst, src []float32) { addRowGo(dst, src) }
