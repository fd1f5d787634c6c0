package nn_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// planProfiles are the models the plan checker walks: both test
// profiles, and a small-width backbone with the full-scale max-pooled
// stem, whose pool output layer1's first conv retains in Train mode.
func planProfiles() []struct {
	name string
	cfg  ufld.Config
} {
	pooled := ufld.Tiny(resnet.R18, 2)
	pooled.Backbone.StemPool = true
	return []struct {
		name string
		cfg  ufld.Config
	}{{"Tiny", ufld.Tiny(resnet.R18, 2)}, {"Small", ufld.Small(resnet.R18, 2)}, {"StemPool", pooled}}
}

// newPlanned builds the detector of cfg with weights from seed 31,
// planned under pick.
func newPlanned(cfg ufld.Config, pick func(free []int, n int) int) *ufld.Model {
	defer nn.SetSlotPolicy(pick)()
	return ufld.MustNewModel(cfg, tensor.NewRNG(31))
}

// planRun is everything a planned model computes that a slot conflict
// could corrupt: the logits of an infer and of an int8 forward, and for
// Train, Eval and Adapt with every parameter trainable the logits and
// each parameter's gradient after one Backward, and the gradients after
// an Embed and EmbedBackward.
func planRun(m *ufld.Model, x, gradRows, dEmb *tensor.Tensor) map[string][]float32 {
	out := map[string][]float32{}
	keep := func(k string, v []float32) { out[k] = append([]float32(nil), v...) }
	keep("infer", m.ForwardInfer(x).Data)
	keep("int8", m.ForwardInferInt8(x).Data)
	params := m.Params()
	nn.SetTrainable(params, params)
	for _, mode := range []nn.Mode{nn.Train, nn.Eval, nn.Adapt} {
		nn.ZeroGrads(params)
		keep(mode.String()+" logits", m.Forward(x, mode).Data)
		m.Backward(gradRows)
		for _, p := range params {
			keep(mode.String()+" "+p.Name, p.Grad.Data)
		}
	}
	nn.ZeroGrads(params)
	keep("embed", m.Embed(x, nn.Train).Data)
	m.EmbedBackward(dEmb)
	for _, p := range m.Backbone().Params() {
		keep("embed "+p.Name, p.Grad.Data)
	}
	return out
}

// TestPlansKeepLiveValues is the plan checker. It plans each model's
// infer and backprop arenas under random slot choices: each placement
// takes any slot the plan allows, or a new one. Allowing a slot that
// holds a value still to be read then puts a layer over that value in
// some seed, and the model computes something else. So every seed must
// give, bit for bit, what the same model planned with a new slot per
// placement (every buffer its own) gives. The default lowest-slot rule
// hides such a slip whenever a lower slot is free; these choices do
// not.
func TestPlansKeepLiveValues(t *testing.T) {
	fresh := func(_ []int, n int) int { return n }
	for _, prof := range planProfiles() {
		cfg := prof.cfg
		x := tensor.New(2, 3, cfg.InputH, cfg.InputW)
		rng := tensor.NewRNG(32)
		rng.FillNormal(x, 0, 1)
		gradRows := tensor.New(2*cfg.Groups(), cfg.Classes())
		rng.FillNormal(gradRows, 0, 1)
		ref := newPlanned(cfg, fresh)
		dEmb := tensor.New(2, ref.Backbone().OutChannels())
		rng.FillNormal(dEmb, 0, 1)
		want := planRun(ref, x, gradRows, dEmb)
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for seed := int64(0); seed < 12; seed++ {
			r := rand.New(rand.NewSource(seed))
			m := newPlanned(cfg, func(free []int, n int) int {
				if i := r.Intn(len(free) + 1); i < len(free) {
					return free[i]
				}
				return n
			})
			got := planRun(m, x, gradRows, dEmb)
			for _, k := range keys {
				if i := diffBits(want[k], got[k]); i >= 0 {
					t.Fatalf("%s seed %d: %s element %d differs from the unshared plan's: a layer was placed over a value still to be read",
						prof.name, seed, k, i)
				}
			}
		}
	}
}

// diffBits is the first index where a and b differ bitwise, or -1.
func diffBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
