package adapt

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// refMethod is the adaptation step as it was before parameters could be
// frozen, kept as the reference Step.Run is held to: on a model whose
// every parameter is trainable it zeroes every gradient, runs the full
// backward (every dW, the stem's dX) through the allocating losses and
// steps only its own set. The skipped gradients were never read, so
// the two must agree to the bit.
type refMethod struct {
	name       string
	m          *ufld.Model
	mode       nn.Mode
	params     []*nn.Param
	opt        nn.Optimizer
	state      nn.OptState
	cfg        Config
	skipWarmup bool // the weight ablations skip their dead warmup forwards
	steps      int
	loss       float64
	hasLoss    bool
}

func (r *refMethod) Name() string                  { return r.name }
func (r *refMethod) Steps() int                    { return r.steps }
func (r *refMethod) LastStepLoss() (float64, bool) { return r.loss, r.hasLoss }
func (r *refMethod) step(x *tensor.Tensor) (float64, bool) {
	if r.skipWarmup && r.steps < r.cfg.WarmupSteps {
		return 0, false
	}
	nn.ZeroGrads(r.m.Params())
	logits := r.m.Forward(x, r.mode)
	var loss float64
	var grad *tensor.Tensor
	if r.cfg.Loss == Confidence {
		loss, grad = nn.ConfidenceLoss(logits)
	} else {
		loss, grad = nn.EntropyLoss(logits)
	}
	if r.steps < r.cfg.WarmupSteps {
		return loss, true
	}
	r.m.Backward(grad)
	if r.cfg.ClipNorm > 0 {
		nn.ClipGradNorm(r.params, r.cfg.ClipNorm)
	}
	r.opt.Step(r.params, &r.state)
	return loss, true
}

func (r *refMethod) Adapt(x *tensor.Tensor) {
	r.loss, r.hasLoss = r.step(x)
	r.steps++
}

// newRef builds a reference stepping params with its own optimizer
// state.
func newRef(name string, m *ufld.Model, mode nn.Mode, params []*nn.Param, cfg Config, skipWarmup bool) *refMethod {
	return &refMethod{name: name, m: m, mode: mode, params: params, opt: NewOptimizer(cfg),
		state: nn.NewOptState(nn.ParamCount(params)), cfg: cfg, skipWarmup: skipWarmup}
}

// refLDBN is the reference for the paper's method.
func refLDBN(m *ufld.Model, cfg Config) *refMethod {
	return newRef("LD-BN-ADAPT", m, nn.Adapt, m.BNParams(), cfg, false)
}

// stepCases are the three methods, each paired with its reference and
// the (batch size, GOMAXPROCS) grid it is pinned on. The paper's method
// gets the full grid; the variants get its corners — every layer's
// frozen path is already held to its trainable twin at 1/2/4 procs in
// internal/nn, and the whole suite has to fit `go test -race`.
var stepCases = []struct {
	name string
	cfg  Config
	grid [][2]int // {bs, procs}
	make func(m *ufld.Model, cfg Config) Method
	ref  func(m *ufld.Model, cfg Config) *refMethod
}{
	{"LD-BN-ADAPT", warmup(DefaultConfig(), 1),
		[][2]int{{1, 1}, {1, 2}, {1, 4}, {4, 1}, {4, 2}, {4, 4}},
		func(m *ufld.Model, cfg Config) Method { return NewLDBNAdapt(m, cfg) },
		refLDBN},
	{"LD-BN-ADAPT sgd+confidence", Config{LR: 1e-3, Momentum: 0.9, WarmupSteps: 1, Loss: Confidence, ClipNorm: 1},
		[][2]int{{1, 4}},
		func(m *ufld.Model, cfg Config) Method { return NewLDBNAdapt(m, cfg) },
		refLDBN},
	{"CONV-ADAPT", warmup(weightConfig(), 1),
		[][2]int{{1, 1}, {4, 4}},
		func(m *ufld.Model, cfg Config) Method { return NewConvAdapt(m, cfg) },
		func(m *ufld.Model, cfg Config) *refMethod {
			return newRef("CONV-ADAPT", m, nn.Eval, m.ConvParams(), cfg, true)
		}},
	{"FC-ADAPT", warmup(weightConfig(), 1),
		[][2]int{{1, 1}, {4, 4}},
		func(m *ufld.Model, cfg Config) Method { return NewFCAdapt(m, cfg) },
		func(m *ufld.Model, cfg Config) *refMethod {
			return newRef("FC-ADAPT", m, nn.Eval, m.FCParams(), cfg, true)
		}},
}

// weightConfig is the setting the suite runs the weight ablations at.
func weightConfig() Config {
	cfg := DefaultConfig()
	cfg.LR /= 10
	return cfg
}

func warmup(cfg Config, steps int) Config {
	cfg.WarmupSteps = steps
	return cfg
}

// sameBits fails unless a and b are bitwise equal.
func sameBits(t *testing.T, what string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d values", what, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: element %d is %v, reference %v", what, i, a[i], b[i])
		}
	}
}

// sameModel compares every parameter, every BN running statistic and
// the post-run serving logits of two models.
func sameModel(t *testing.T, what string, got, ref *ufld.Model, val *tensor.Tensor) {
	t.Helper()
	gp, rp := got.Params(), ref.Params()
	for i := range gp {
		sameBits(t, what+": "+gp[i].Name, gp[i].Value.Data, rp[i].Value.Data)
	}
	gb, rb := got.BatchNorms(), ref.BatchNorms()
	for i := range gb {
		sameBits(t, what+": "+gb[i].Name()+" running mean", gb[i].RunningMean.Data, rb[i].RunningMean.Data)
		sameBits(t, what+": "+gb[i].Name()+" running var", gb[i].RunningVar.Data, rb[i].RunningVar.Data)
	}
	sameBits(t, what+": ForwardInfer logits", got.ForwardInfer(val).Data, ref.ForwardInfer(val).Data)
}

// TestFrozenStepMatchesFullBackward is the old-vs-new pin: each method
// with its freeze applied against the reference on an all-trainable
// twin, one warm-up step and two updates (the second sees the first's
// optimizer moments), at batch sizes 1 and 4 with the worker pool off
// and on. Losses are compared every step; parameters, BN statistics
// and serving logits at the end.
func TestFrozenStepMatchesFullBackward(t *testing.T) {
	f := getFixture(t)
	samples := f.bench.TargetTrain.Samples
	val := ufld.Images(f.model.Cfg, f.bench.TargetVal.Samples, []int{0, 1, 2})
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, c := range stepCases {
		for _, g := range c.grid {
			bs, procs := g[0], g[1]
			runtime.GOMAXPROCS(procs)
			got, ref := f.model.Clone(tensor.NewRNG(1)), f.model.Clone(tensor.NewRNG(1))
			meth, rm := c.make(got, c.cfg), c.ref(ref, c.cfg)
			for step := 0; step < c.cfg.WarmupSteps+2; step++ {
				idx := make([]int, bs)
				for i := range idx {
					idx[i] = (step*bs + i) % len(samples)
				}
				x := ufld.Images(got.Cfg, samples, idx)
				meth.Adapt(x)
				rm.Adapt(x)
				gl, gok := meth.(LossReporter).LastStepLoss()
				rl, rok := rm.LastStepLoss()
				if gok != rok || math.Float64bits(gl) != math.Float64bits(rl) {
					t.Fatalf("%s bs=%d procs=%d step %d: loss (%v, %v), reference (%v, %v)",
						c.name, bs, procs, step, gl, gok, rl, rok)
				}
			}
			sameModel(t, c.name, got, ref, val)
		}
	}
}

// TestStepFreezesEverythingElse: building a method marks exactly its
// own parameter set trainable, and the backward leaves every other
// gradient untouched.
func TestStepFreezesEverythingElse(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	cfg := DefaultConfig()
	cfg.WarmupSteps = 0
	meth := NewLDBNAdapt(m, cfg)
	own := map[*nn.Param]bool{}
	for _, p := range m.BNParams() {
		own[p] = true
	}
	for _, p := range m.Params() {
		if p.Frozen == own[p] {
			t.Fatalf("%s: Frozen=%v after NewLDBNAdapt", p.Name, p.Frozen)
		}
		if !own[p] {
			p.Grad.Data[0] = 777
		}
	}
	meth.Adapt(ufld.Images(m.Cfg, f.bench.TargetTrain.Samples, []int{0, 1}))
	for _, p := range m.Params() {
		if !own[p] && (p.Grad.Data[0] != 777 || p.Grad.Norm2() != 777) {
			t.Fatalf("frozen %s had its gradient written", p.Name)
		}
	}

	// A second method on the same model re-draws the freeze; the
	// displaced one must refuse to run rather than step nothing.
	NewFCAdapt(m, cfg)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "another Step was built on this model") {
			t.Fatalf("displaced method's Adapt: panic %q", msg)
		}
	}()
	meth.Adapt(ufld.Images(m.Cfg, f.bench.TargetTrain.Samples, []int{0}))
}

// TestStepAllocationFree pins the step's allocation contract: past
// warm-up (scratch grown, optimizer moments created), an LD-BN-ADAPT
// step on a stable batch shape performs zero heap allocations.
func TestStepAllocationFree(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	meth := NewLDBNAdapt(m, DefaultConfig())
	x := ufld.Images(m.Cfg, f.bench.TargetTrain.Samples, []int{0})
	for i := 0; i < DefaultConfig().WarmupSteps+1; i++ {
		meth.Adapt(x)
	}
	if n := testing.AllocsPerRun(5, func() { meth.Adapt(x) }); n != 0 {
		t.Fatalf("LD-BN-ADAPT step allocates %.1f objects at steady state, want 0", n)
	}
}
