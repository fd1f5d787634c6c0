package ufld_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// sameBits reports the first element where a and b differ bitwise, or
// -1.
func sameBits(a, b []float32) int {
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

// sampleSources builds one perturbed BN state per sample for every BN
// layer of m, as the serving engine installs them: [layer][sample].
func sampleSources(m *ufld.Model, n int, rng *tensor.RNG) [][]*nn.BNSource {
	bns := m.BatchNorms()
	out := make([][]*nn.BNSource, len(bns))
	for j, b := range bns {
		out[j] = make([]*nn.BNSource, n)
		for i := range out[j] {
			s := &nn.BNSource{Mean: make([]float32, b.C), Var: make([]float32, b.C), Gamma: make([]float32, b.C), Beta: make([]float32, b.C)}
			for c := 0; c < b.C; c++ {
				s.Mean[c] = b.RunningMean.Data[c] + float32(rng.Range(-0.1, 0.1))
				s.Var[c] = b.RunningVar.Data[c] * float32(rng.Range(0.8, 1.25))
				s.Gamma[c] = b.Gamma.Value.Data[c] * float32(rng.Range(0.9, 1.1))
				s.Beta[c] = b.Beta.Value.Data[c] + float32(rng.Range(-0.05, 0.05))
			}
			out[j][i] = s
		}
	}
	return out
}

func installSources(m *ufld.Model, srcs [][]*nn.BNSource) {
	for j, b := range m.BatchNorms() {
		if srcs == nil {
			b.SetSampleSources(nil)
		} else {
			b.SetSampleSources(srcs[j])
		}
	}
}

// TestInferArenaMatchesFreshModel: a model whose infer forwards share
// one arena gives, at every batch size, in both infer modes and with
// and without per-sample BN sources, the bits a freshly cloned model's
// first infer forward gives, after forwards at other batch sizes and
// LD-BN-ADAPT steps (Train/Eval/Adapt scratch) in between. Without
// sources the float forward is also held to an Eval forward, which
// runs on per-layer scratch and no arena at all.
func TestInferArenaMatchesFreshModel(t *testing.T) {
	for _, prof := range []struct {
		name string
		cfg  ufld.Config
	}{{"Tiny", ufld.Tiny(resnet.R18, 2)}, {"Small", ufld.Small(resnet.R18, 2)}} {
		cfg := prof.cfg
		m := ufld.MustNewModel(cfg, tensor.NewRNG(21))
		acfg := adapt.DefaultConfig()
		acfg.WarmupSteps = 0
		step := adapt.NewStep(m, m.BNParams(), acfg)
		st := step.NewState()
		rng := tensor.NewRNG(22)
		for round, bs := range []int{1, 3, 8, 3, 1, 8} {
			x := tensor.New(bs, 3, cfg.InputH, cfg.InputW)
			rng.FillNormal(x, 0, 1)
			for _, int8 := range []bool{false, true} {
				for _, withSources := range []bool{false, true} {
					ref := m.Clone(tensor.NewRNG(1))
					var srcs [][]*nn.BNSource
					if withSources {
						srcs = sampleSources(m, bs, rng)
					}
					installSources(ref, srcs)
					installSources(m, srcs)
					forward := (*ufld.Model).ForwardInfer
					if int8 {
						forward = (*ufld.Model).ForwardInferInt8
					}
					want := forward(ref, x).Clone()
					got := forward(m, x)
					what := fmt.Sprintf("%s round %d bs %d int8 %v sources %v", prof.name, round, bs, int8, withSources)
					if i := sameBits(want.Data, got.Data); i >= 0 {
						t.Fatalf("%s: logit %d differs from a fresh model's", what, i)
					}
					installSources(m, nil)
					if !int8 && !withSources {
						if i := sameBits(ref.Forward(x, nn.Eval).Data, got.Data); i >= 0 {
							t.Fatalf("%s: logit %d differs from an Eval forward", what, i)
						}
					}
				}
			}
			frame := tensor.FromSlice(x.Data[:3*cfg.InputH*cfg.InputW], 1, 3, cfg.InputH, cfg.InputW)
			step.Run(frame, nn.Adapt, &st, round)
		}
	}
}

// TestInferArenaHoldsFewActivations: what a Small model's first bs-8
// infer forward adds to the live heap, after a bs-1 forward has sized
// everything that does not scale with the batch (each conv's
// one-sample padded planes, which both scratch classes share), is a
// few of its largest activations: the arena's slots growing. With one
// infer output per layer it was about eighteen.
func TestInferArenaHoldsFewActivations(t *testing.T) {
	cfg := ufld.Small(resnet.R18, 2)
	m := ufld.MustNewModel(cfg, tensor.NewRNG(23))
	x := tensor.New(8, 3, cfg.InputH, cfg.InputW)
	tensor.NewRNG(24).FillNormal(x, 0, 1)
	m.ForwardInfer(tensor.FromSlice(x.Data[:3*cfg.InputH*cfg.InputW], 1, 3, cfg.InputH, cfg.InputW))
	before := liveMB()
	m.ForwardInfer(x)
	grown := liveMB() - before
	runtime.KeepAlive(m)
	runtime.KeepAlive(x)
	// The stem's output is the largest activation (stride 1, no pool).
	largest := float64(8*cfg.Backbone.BaseWidth*cfg.InputH*cfg.InputW*4) / 1e6
	if grown > 4*largest {
		t.Fatalf("a first bs-8 infer forward keeps %.2f MB more live, %.1f× the largest activation (%.2f MB); want ≤ 4×",
			grown, grown/largest, largest)
	}
	t.Logf("first bs-8 infer forward: %.2f MB more live, %.2f× the largest activation", grown, grown/largest)
}

// TestReplicaHoldsNoWeights: a replica's conv and FC params are its own
// Param values over the source's very weight tensors, with no Grad
// before or after an LD-BN-ADAPT step on the replica; its BN state is a
// bitwise copy in storage of its own; and the step leaves the source's
// params as they were (not frozen, no Grad).
func TestReplicaHoldsNoWeights(t *testing.T) {
	cfg := ufld.Tiny(resnet.R18, 2)
	m := ufld.MustNewModel(cfg, tensor.NewRNG(25))
	r := m.Replica()
	mp, rp := m.Params(), r.Params()
	if len(mp) != len(rp) {
		t.Fatalf("replica has %d params, source %d", len(rp), len(mp))
	}
	bn := map[*nn.Param]bool{}
	for _, p := range r.BNParams() {
		bn[p] = true
	}
	check := func(when string) {
		for i, p := range rp {
			switch {
			case p == mp[i]:
				t.Fatalf("%s: %s: the replica shares the source's Param", when, p.Name)
			case p.Name != mp[i].Name:
				t.Fatalf("%s: param %d is %s, source's is %s", when, i, p.Name, mp[i].Name)
			case mp[i].Frozen || mp[i].Grad != nil:
				t.Fatalf("%s: %s: the source's param was frozen or given a gradient", when, p.Name)
			case bn[p] && p.Value == mp[i].Value:
				t.Fatalf("%s: %s: BN parameter shared with the source", when, p.Name)
			case !bn[p] && p.Value != mp[i].Value:
				t.Fatalf("%s: %s: weight tensor not the source's", when, p.Name)
			case !bn[p] && p.Grad != nil:
				t.Fatalf("%s: %s: the replica holds a weight gradient", when, p.Name)
			}
		}
	}
	check("built")
	for i, p := range r.BNParams() {
		if sameBits(p.Value.Data, m.BNParams()[i].Value.Data) >= 0 {
			t.Fatalf("%s: replica's copy differs", p.Name)
		}
	}
	mb, rb := m.BatchNorms(), r.BatchNorms()
	for i := range mb {
		if rb[i].RunningMean == mb[i].RunningMean || rb[i].RunningVar == mb[i].RunningVar ||
			sameBits(rb[i].RunningMean.Data, mb[i].RunningMean.Data) >= 0 || sameBits(rb[i].RunningVar.Data, mb[i].RunningVar.Data) >= 0 ||
			rb[i].Momentum != mb[i].Momentum || rb[i].AdaptMomentum != mb[i].AdaptMomentum || rb[i].Eps != mb[i].Eps {
			t.Fatalf("%s: running statistics or momenta not a private copy", mb[i].Name())
		}
	}
	acfg := adapt.DefaultConfig()
	acfg.WarmupSteps = 0
	step := adapt.NewStep(r, r.BNParams(), acfg)
	st := step.NewState()
	x := tensor.New(1, 3, cfg.InputH, cfg.InputW)
	tensor.NewRNG(26).FillNormal(x, 0, 1)
	r.ForwardInfer(x)
	step.Run(x, nn.Adapt, &st, 0)
	check("after a step")
	replicaHoldsNoTransposedWeights(t)
}

// replicaHoldsNoTransposedWeights: a replica's backward keeps no
// copy of the shared weights, such as the transposed weight matrix a
// frozen conv's dX once multiplied by. On a wide backbone, where the
// conv weights dwarf an activation, a replica's first full LD-BN-ADAPT
// step, after an infer forward and a warm-up step have sized its
// arenas, adds less than a quarter of the conv weights' bytes to the
// live heap; a transposed copy of them would add about all of it.
func replicaHoldsNoTransposedWeights(t *testing.T) {
	cfg := ufld.Tiny(resnet.R18, 2)
	cfg.Backbone.BaseWidth = 16
	m := ufld.MustNewModel(cfg, tensor.NewRNG(29))
	weights := 0.0
	for _, p := range m.ConvParams() {
		weights += float64(4*p.Value.Size()) / 1e6
	}
	r := m.Replica()
	acfg := adapt.DefaultConfig()
	step := adapt.NewStep(r, r.BNParams(), acfg)
	st := step.NewState()
	x := tensor.New(1, 3, cfg.InputH, cfg.InputW)
	tensor.NewRNG(30).FillNormal(x, 0, 1)
	r.ForwardInfer(x)
	step.Run(x, nn.Adapt, &st, 0)
	before := liveMB()
	step.Run(x, nn.Adapt, &st, acfg.WarmupSteps)
	grown := liveMB() - before
	runtime.KeepAlive(m)
	runtime.KeepAlive(r)
	runtime.KeepAlive(step)
	if grown > weights/4 {
		t.Fatalf("a replica's first full step keeps %.2f MB more live, against %.2f MB of conv weights", grown, weights)
	}
	t.Logf("a replica's first full step: %.3f MB more live, %.2f MB of conv weights", grown, weights)
}

// TestStepArenaHoldsFewActivations: what a Small model holds for its
// Train/Eval/Adapt class, measured as the live-heap growth from after a
// bs-1 infer forward (which sized every conv's padded planes, shared by
// both classes) to after one full LD-BN-ADAPT step at bs 1, forward,
// backward and update, is a bounded multiple of its largest activation.
// A Backward reads one buffer per BN (x̂), per ReLU and per residual
// block, about nineteen activations at Small; the backprop arena's
// slots, the shared dX and dW lines and the BN gradients add a few
// more. With a conv and BN output and a dX per layer, and each frozen
// conv's cached transposed weight, it was about seventy.
func TestStepArenaHoldsFewActivations(t *testing.T) {
	if retainCheck {
		t.Skip("a retaincheck build copies each conv's retained input, which this bound does not count")
	}
	cfg := ufld.Small(resnet.R18, 2)
	m := ufld.MustNewModel(cfg, tensor.NewRNG(27))
	x := tensor.New(1, 3, cfg.InputH, cfg.InputW)
	tensor.NewRNG(28).FillNormal(x, 0, 1)
	m.ForwardInfer(x)
	before := liveMB()
	acfg := adapt.DefaultConfig()
	step := adapt.NewStep(m, m.BNParams(), acfg)
	st := step.NewState()
	step.Run(x, nn.Adapt, &st, acfg.WarmupSteps)
	grown := liveMB() - before
	runtime.KeepAlive(m)
	runtime.KeepAlive(step)
	largest := float64(cfg.Backbone.BaseWidth*cfg.InputH*cfg.InputW*4) / 1e6
	if grown > 28*largest {
		t.Fatalf("a first full step keeps %.2f MB more live, %.1f× the largest activation (%.3f MB); want ≤ 28×",
			grown, grown/largest, largest)
	}
	t.Logf("first full step: %.2f MB more live, %.1f× the largest activation", grown, grown/largest)
}
