//go:build !amd64 || purego

package tensor

// rowTier: without the amd64 assembly no tier but the Go kernels runs.
func rowTier(string) (restore func(), skip string) {
	return nil, "assembly compiled out: the Go kernels are the only path"
}
