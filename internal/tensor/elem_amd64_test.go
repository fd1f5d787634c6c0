//go:build amd64 && !purego

package tensor

import (
	"math"
	"testing"
)

// Assembly ≡ Go suite for the elementwise kernels (elem_amd64.s):
// same method as gemm_amd64_test.go — each case runs once with useAVX2
// off (the Go loop, the spec) and once with it on, into NaN-poisoned,
// poison-framed destinations at every 32-byte phase.

// elemScalars are (mean, invStd, gamma, beta | k, cnt, mom, ΣdY,
// ΣdY·x̂) sets for the two BN kernels: ordinary values whose products
// need rounding (so a fused multiply-add would show), then values that
// overflow and cancel.
var elemScalars = [][5]float32{
	{0.37, 1.913, 0.881, -0.219, 1.37},
	{-1.25e-3, 316.2, -1.0000001, 3.1e-7, -0.3},
	{math.MaxFloat32, 2, math.MaxFloat32, math.MaxFloat32, 0},
}

// elemKernels lists every exported routine of elem.go (BNAffineInto
// twice: without and with the x̂ store). out[0] of an inPlace kernel
// starts as an operand. exact kernels only move bits, so even a NaN's
// payload must come through; the others are compared by sameBits.
var elemKernels = []struct {
	name      string
	outs, ins int
	inPlace   bool
	exact     bool
	scalars   bool
	run       func(out, in [][]float32, s [5]float32)
}{
	{"ReLUInto", 1, 1, false, true, false,
		func(o, in [][]float32, _ [5]float32) { ReLUInto(o[0], in[0]) }},
	{"ReLUClamp", 1, 0, true, true, false,
		func(o, _ [][]float32, _ [5]float32) { ReLUClamp(o[0]) }},
	{"ReLUGradInto", 1, 2, false, true, false,
		func(o, in [][]float32, _ [5]float32) { ReLUGradInto(o[0], in[0], in[1]) }},
	{"AddReLUInto", 1, 2, false, false, false,
		func(o, in [][]float32, _ [5]float32) { AddReLUInto(o[0], in[0], in[1]) }},
	{"AddReLUClamp", 1, 1, true, false, false,
		func(o, in [][]float32, _ [5]float32) { AddReLUClamp(o[0], in[0]) }},
	{"BNAffineInto", 1, 1, false, false, true,
		func(o, in [][]float32, s [5]float32) { BNAffineInto(o[0], nil, in[0], s[0], s[1], s[2], s[3]) }},
	{"BNAffineInto+xhat", 2, 1, false, false, true,
		func(o, in [][]float32, s [5]float32) { BNAffineInto(o[0], o[1], in[0], s[0], s[1], s[2], s[3]) }},
	{"BNGradInto", 1, 2, false, false, true,
		func(o, in [][]float32, s [5]float32) { BNGradInto(o[0], in[0], in[1], s[0], s[1], s[2], s[3], s[4]) }},
}

// elemSizes: every n in 0..70 (each count of whole vectors 0..8 with
// each tail 0..7), then Small's real plane sizes.
func elemSizes() []int {
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 5760, 1440, 360, 90)
}

func TestAVX2ElemKernelsMatchGo(t *testing.T) {
	needAVX2(t)
	rng := NewRNG(0xe1e3)
	for _, kn := range elemKernels {
		sets := elemScalars[:1]
		if kn.scalars {
			sets = elemScalars
		}
		kept, gated := 0, 0 // outputs that are ordinary values / +0 or NaN
		for _, n := range elemSizes() {
			ins := make([][]float32, kn.ins)
			for i := range ins {
				ins[i] = salted(rng, n, 3*i)
			}
			seed := salted(rng, n, 7) // an inPlace kernel's first operand
			for si, s := range sets {
				want := make([][]float32, kn.outs)
				for i := range want {
					want[i] = make([]float32, n)
				}
				if kn.inPlace {
					copy(want[0], seed)
				}
				withAVX2(false, func() { kn.run(want, ins, s) })
				for _, w := range want[0] {
					if w != w || w == 0 {
						gated++
					} else {
						kept++
					}
				}
				if n == 0 {
					withAVX2(true, func() { kn.run(want, ins, s) }) // nothing to touch: must not fault
					continue
				}
				for off := 0; off < 8; off++ {
					got := make([][]float32, kn.outs)
					intact := make([]func() bool, kn.outs)
					for i := range got {
						ft, ok := framed((off+3*i)%8, n)
						got[i], intact[i] = ft.Data, ok
					}
					if kn.inPlace {
						copy(got[0], seed)
					}
					shifted := make([][]float32, kn.ins)
					for i, in := range ins {
						shifted[i] = offset(FromSlice(in, n), (off+5+2*i)%8).Data
					}
					withAVX2(true, func() { kn.run(got, shifted, s) })
					for i := range got {
						cmp := sameBits
						if kn.exact {
							cmp = bitsEqual
						}
						if j := cmp(want[i], got[i]); j >= 0 {
							t.Fatalf("%s n=%d off=%d scalars=%d: out[%d][%d] is %x, Go loop gives %x",
								kn.name, n, off, si, i, j, math.Float32bits(got[i][j]), math.Float32bits(want[i][j]))
						}
						if !intact[i]() {
							t.Fatalf("%s n=%d off=%d scalars=%d: wrote outside out[%d]", kn.name, n, off, si, i)
						}
					}
				}
			}
		}
		if kept == 0 || gated == 0 {
			t.Fatalf("%s: fixture is not discriminating: %d ordinary outputs, %d zero or NaN", kn.name, kept, gated)
		}
	}
}
