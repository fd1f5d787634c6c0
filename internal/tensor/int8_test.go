package tensor

import (
	"math"
	"slices"
	"testing"
)

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

// TestQuantizeInt8MatchesRound holds QuantizeInt8's rounding to
// math.Round bit for bit — on every half-integer in [−200, 200] and its
// four float64 neighbours on each side, on ±0, ±Inf, NaN, the largest
// float64 below ½, values just below 2⁵², and on random values —
// and the whole QuantizeInt8 to its plain spec (a compare-and-swap max
// of |v| and math.Round) on slices with NaN, −0, ±Inf, denormal and
// all-zero entries, so dst and the scale match.
func TestQuantizeInt8MatchesRound(t *testing.T) {
	check := func(x float64) {
		if got, want := roundHalfAway(x), math.Round(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("roundHalfAway(%v) = %v, math.Round gives %v", x, got, want)
		}
	}
	for h := -400; h <= 400; h++ {
		x := float64(h) / 2
		check(x)
		lo, hi := x, x
		for i := 0; i < 4; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			check(lo)
			check(hi)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		0.49999999999999994, -0.49999999999999994, 0x1p52 - 0.5, -(0x1p52 - 1.5), 0x1p51 + 0.5, -(0x1p51 + 1.5)} {
		check(x)
	}
	rng := NewRNG(0x9a7)
	n := 5_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		check(rng.Range(-300, 300))
	}

	spec := func(dst []int8, src []float32) float32 {
		maxAbs := float32(0)
		for _, v := range src {
			a := v
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			clear(dst)
			return 0
		}
		scale := maxAbs / 127
		inv := 1 / float64(scale)
		for i, v := range src {
			q := math.Round(float64(v) * inv)
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			dst[i] = int8(q)
		}
		return scale
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := math.Float32frombits(1 << 31)
	for ci, src := range [][]float32{
		{},
		{0, negZero, 0},
		{nan, nan},
		{nan, 1.5, -2.5, negZero, 0.25},
		{inf, 3, -inf, nan, negZero},
		{math.Float32frombits(1), -math.Float32frombits(3), 0},
		{-1e-39, 2e-39, negZero},
		{127, -127, 63.5, -63.5, 0.5, -0.5},
	} {
		want, got := make([]int8, len(src)), make([]int8, len(src))
		ws, gs := spec(want, src), QuantizeInt8(got, src)
		if math.Float32bits(ws) != math.Float32bits(gs) || !slices.Equal(want, got) {
			t.Fatalf("case %d %v: QuantizeInt8 gives %v scale %v, the spec %v scale %v", ci, src, got, gs, want, ws)
		}
	}
	for rep := 0; rep < 200; rep++ {
		src := make([]float32, 1+rng.Intn(700))
		for i := range src {
			src[i] = float32(rng.Normal(0, 1+float64(rep)))
			if rep%2 == 1 && src[i] < 0 { // ReLU-shaped
				src[i] = 0
			}
		}
		want, got := make([]int8, len(src)), make([]int8, len(src))
		ws, gs := spec(want, src), QuantizeInt8(got, src)
		if math.Float32bits(ws) != math.Float32bits(gs) || !slices.Equal(want, got) {
			t.Fatalf("random slice %d: QuantizeInt8 differs from the spec (scale %v vs %v)", rep, gs, ws)
		}
	}
}
