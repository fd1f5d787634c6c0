package tensor

import (
	"math"
	"testing"
)

// elemSpecials are the values where a select or a rounding step could
// go differently in a vector lane: both zeros, NaN, both infinities,
// the smallest and largest denormals and ±MaxFloat32.
var elemSpecials = []float32{
	0, math.Float32frombits(1 << 31), float32(math.NaN()),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), math.MaxFloat32, -math.MaxFloat32,
}

// salted returns n uniform values in [-2, 2) with every third one
// replaced by a special; salt shifts which special lands where, so two
// operands meet in different combinations (Inf + −Inf, NaN under a
// zero gate, …) and every lane sees every special as n grows.
func salted(rng *RNG, n, salt int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.Range(-2, 2))
		if i%3 == 0 {
			x[i] = elemSpecials[(i/3+salt)%len(elemSpecials)]
		}
	}
	return x
}

// TestElemReLURulesDiffer pins the asymmetry the two ReLU rules must
// keep: Into zeroes NaN, Clamp keeps it; both turn −0 into +0. It
// runs through whichever implementation the build selects — the
// assembly is held to the Go loops in elem_amd64_test.go.
func TestElemReLURulesDiffer(t *testing.T) {
	src := salted(NewRNG(5), 24, 0)
	into := make([]float32, len(src))
	ReLUInto(into, src)
	clamp := append([]float32(nil), src...)
	ReLUClamp(clamp)
	for i, v := range src {
		switch {
		case v != v:
			if math.Float32bits(into[i]) != 0 || clamp[i] == clamp[i] {
				t.Fatalf("NaN at %d: Into gives %v (want +0), Clamp gives %v (want NaN)", i, into[i], clamp[i])
			}
		case v <= 0:
			if math.Float32bits(into[i]) != 0 || math.Float32bits(clamp[i]) != 0 {
				t.Fatalf("%v at %d: Into %x Clamp %x, want +0 from both", v, i, math.Float32bits(into[i]), math.Float32bits(clamp[i]))
			}
		default:
			if into[i] != v || clamp[i] != v {
				t.Fatalf("%v at %d: Into %v Clamp %v, want it kept", v, i, into[i], clamp[i])
			}
		}
	}
}

// TestElemLengthMismatchPanics: the wrappers, not the assembly, own
// the bounds — a short or long operand must panic before any store.
func TestElemLengthMismatchPanics(t *testing.T) {
	a, b := make([]float32, 16), make([]float32, 15)
	for name, f := range map[string]func(){
		"ReLUInto":     func() { ReLUInto(a, b) },
		"ReLUGradInto": func() { ReLUGradInto(a, a, b) },
		"AddReLUInto":  func() { AddReLUInto(a, b, a) },
		"AddReLUClamp": func() { AddReLUClamp(b, a) },
		"BNAffineInto": func() { BNAffineInto(a, b, a, 0, 1, 1, 0) },
		"BNGradInto":   func() { BNGradInto(b, a, a, 1, 1, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted operands of different lengths", name)
				}
			}()
			f()
		}()
	}
}
