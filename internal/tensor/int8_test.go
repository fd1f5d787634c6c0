package tensor

import "testing"

// TestInt8MatMulMatchesScalar holds Int8MatMulInto, and through it the
// int8 row kernel, to the scalar spec: element (i, j) is
// (aScales[i]·xScale)·float32(Σ_p a[i,p]·b[p,j]) with an int32 sum. The
// shapes take odd and even inner dimensions (the kernel's pairs and
// its last single coefficient) and rows of 1 to 600 columns (the
// 256-column block seam); a holds zero pairs and lone zeros next to
// non-zero partners, and the second pass runs every value at ±127.
func TestInt8MatMulMatchesScalar(t *testing.T) {
	rng := NewRNG(0x1e8)
	for rep := 0; rep < 2; rep++ {
		for _, sh := range []struct{ m, k, n int }{
			{1, 1, 1}, {3, 2, 7}, {4, 5, 255}, {2, 9, 256}, {5, 8, 257}, {3, 31, 600}, {6, 147, 90},
		} {
			q := func() int8 {
				if rep == 1 {
					return int8(127 - 254*rng.Intn(2))
				}
				return int8(rng.Intn(255) - 127)
			}
			a, b := make([]int8, sh.m*sh.k), make([]int8, sh.k*sh.n)
			for i := range a {
				switch a[i] = q(); i % 9 {
				case 0, 1: // a zero pair (at even k)
					a[i] = 0
				case 4: // a lone zero
					a[i] = 0
				}
			}
			for i := range b {
				b[i] = q()
			}
			aScales := make([]float32, sh.m)
			for i := range aScales {
				aScales[i] = float32(rng.Float64()) + 0.01
			}
			xScale := float32(rng.Float64()) + 0.01
			got := Full(-1, sh.m, sh.n)
			Int8MatMulInto(got, a, aScales, b, xScale, sh.m, sh.k, sh.n)
			for i := 0; i < sh.m; i++ {
				for j := 0; j < sh.n; j++ {
					sum := int32(0)
					for p := 0; p < sh.k; p++ {
						sum += int32(a[i*sh.k+p]) * int32(b[p*sh.n+j])
					}
					if want := aScales[i] * xScale * float32(sum); got.Data[i*sh.n+j] != want {
						t.Fatalf("rep %d %+v: element (%d,%d) is %v, scalar spec gives %v", rep, sh, i, j, got.Data[i*sh.n+j], want)
					}
				}
			}
		}
	}
}
