package nn

import (
	"math"
	"testing"

	"ldbnadapt/internal/tensor"
)

// convIm2ColRef is the im2col path of a conv forward, spelled out per
// sample: lower, multiply by the weight matrix, add the bias.
func convIm2ColRef(c *Conv2D, x *tensor.Tensor) []float32 {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	hw, chw := oh*ow, c.InC*h*w
	wm := tensor.FromSlice(c.Weight.Value.Data, c.OutC, c.kDim())
	out := make([]float32, 0, n*c.OutC*hw)
	for ni := 0; ni < n; ni++ {
		xi := tensor.FromSlice(x.Data[ni*chw:(ni+1)*chw], 1, c.InC, h, w)
		oi, cols := tensor.New(c.OutC, hw), tensor.New(c.kDim(), hw)
		tensor.Im2ColInto(cols, xi, c.Geom)
		tensor.MatMulInto(oi, wm, cols)
		if c.Bias != nil {
			c.addBiasRows(oi, hw)
		}
		out = append(out, oi.Data...)
	}
	return out
}

// sameF32 reports the first element whose bits differ, comparing only
// NaN-ness where want is NaN (the payload a NaN keeps through an add is
// the compiler's choice of operand order).
func sameF32(want, got []float32) int {
	if len(want) != len(got) {
		return 0
	}
	for i := range want {
		if want[i] != want[i] {
			if got[i] == got[i] {
				return i
			}
			continue
		}
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			return i
		}
	}
	return -1
}

// TestConvSlabFreeMatchesIm2Col holds the padded-plane forward that
// every float mode takes, at every stride, to the im2col path bit for
// bit: the stride-1 kernel sizes the models use and larger ones, the
// stride-2 3×3 entry, 1×1 shortcut and 7×7 stem, nn's gradcheck shape,
// outputs one column wide and narrower than a vector, ±0 weights,
// NaN/±Inf/−0 inputs, batches 1–4 with sample banding forced on at 1,
// 2 and 4 procs, in Infer and Adapt with the weight frozen and in
// Train with it trainable. A steady-state forward allocates nothing.
func TestConvSlabFreeMatchesIm2Col(t *testing.T) {
	sq := func(k, s, p int) tensor.ConvGeom { return tensor.ConvGeom{KH: k, KW: k, SH: s, SW: s, PH: p, PW: p} }
	cases := []struct {
		inC, outC, h, w int
		g               tensor.ConvGeom
		bias            bool
	}{
		{6, 6, 12, 30, sq(3, 1, 1), false},
		{5, 7, 7, 9, sq(3, 1, 0), true},
		{12, 24, 6, 15, sq(1, 1, 0), false},
		{4, 5, 9, 11, sq(5, 1, 2), true},
		{3, 6, 10, 13, sq(7, 1, 3), false},
		{3, 4, 5, 1, sq(3, 1, 1), false}, // ow 1
		{4, 3, 6, 5, sq(3, 1, 1), true},  // ow 5
		{2, 3, 4, 3, sq(1, 1, 0), false}, // ow 3, no plane
		{6, 12, 12, 30, sq(3, 2, 1), false},
		{6, 12, 12, 30, sq(1, 2, 0), false},
		{3, 4, 7, 6, sq(3, 2, 1), true}, // the gradcheck shape
		{3, 5, 18, 37, sq(7, 2, 3), false},
		{3, 4, 7, 1, sq(3, 2, 1), false}, // ow 1
	}
	lowLayerGates(t)
	rng := tensor.NewRNG(0x51ab)
	negZero := math.Float32frombits(1 << 31)
	modes := []struct {
		mode   Mode
		frozen bool
	}{{Infer, true}, {Adapt, true}, {Train, false}}
	for ci, tc := range cases {
		c := NewConv2D("c", tc.inC, tc.outC, tc.g, tc.bias, rng)
		for i := 0; i < len(c.Weight.Value.Data); i += 7 {
			c.Weight.Value.Data[i] = 0
			if i+1 < len(c.Weight.Value.Data) {
				c.Weight.Value.Data[i+1] = negZero
			}
		}
		if tc.bias {
			rng.FillUniform(c.Bias.Value, -1, 1)
		}
		for n := 1; n <= 4; n++ {
			x := tensor.New(n, tc.inC, tc.h, tc.w)
			rng.FillUniform(x, -2, 2)
			x.Data[len(x.Data)/3] = negZero
			if n%2 == 0 {
				x.Data[0] = float32(math.NaN())
				x.Data[len(x.Data)/2] = float32(math.Inf(1))
				x.Data[len(x.Data)-1] = float32(math.Inf(-1))
			}
			want := convIm2ColRef(c, x)
			for _, m := range modes {
				c.Weight.Frozen = m.frozen
				for _, procs := range []int{1, 2, 4} {
					withNNProcs(t, procs, func() {
						got := c.Forward(x, m.mode)
						if i := sameF32(want, got.Data); i >= 0 {
							t.Fatalf("case %d n=%d %v procs=%d: element %d is %v, im2col gives %v",
								ci, n, m.mode, procs, i, got.Data[i], want[i])
						}
					})
				}
			}
		}
		x := tensor.New(3, tc.inC, tc.h, tc.w)
		rng.FillUniform(x, -2, 2)
		for _, m := range modes {
			c.Weight.Frozen = m.frozen
			c.Forward(x, m.mode)
			if a := testing.AllocsPerRun(5, func() { c.Forward(x, m.mode) }); a != 0 {
				t.Fatalf("case %d %v: %.1f allocations per steady-state forward", ci, m.mode, a)
			}
		}
	}
}
