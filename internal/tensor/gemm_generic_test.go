//go:build !amd64 || purego

package tensor

import "testing"

// rowTier: without the amd64 assembly no tier but the Go kernels runs.
func rowTier(string) (restore func(), skip string) {
	return nil, "assembly compiled out: the Go kernels are the only path"
}

// eachTier: without the amd64 assembly there is no tier to hold to the
// Go kernels, so each tier's subtest skips, saying so.
func eachTier(t *testing.T, _ func(t *testing.T)) {
	for _, tier := range []string{"avx2", "avx512"} {
		t.Run(tier, func(t *testing.T) { t.Skip("assembly compiled out: the Go kernels are the only path") })
	}
}
