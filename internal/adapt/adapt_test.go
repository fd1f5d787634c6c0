package adapt

import (
	"math"
	"sync"
	"testing"

	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// fixture holds a pre-trained tiny MoLane model shared across tests
// (pre-training once keeps the suite fast on a single core).
type fixture struct {
	bench *carlane.Benchmark
	model *ufld.Model // source-trained; tests must Clone before mutating
	rng   *tensor.RNG
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		rng := tensor.NewRNG(42)
		b := carlane.Build(carlane.MoLane, resnet.R18, ufld.Tiny,
			carlane.Sizes{SourceTrain: 60, SourceVal: 16, TargetTrain: 48, TargetVal: 24}, 5)
		m := ufld.MustNewModel(b.Cfg, rng)
		tc := ufld.DefaultTrainConfig()
		tc.Epochs = 6
		tc.BatchSize = 8
		if _, err := ufld.TrainSource(m, b.SourceTrain, tc, rng.Split()); err != nil {
			panic(err)
		}
		fix = fixture{bench: b, model: m, rng: rng}
	})
	return &fix
}

func TestLossKindString(t *testing.T) {
	if Entropy.String() != "entropy" || Confidence.String() != "confidence" {
		t.Fatal("loss names wrong")
	}
}

func TestMethodNames(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	cfg := DefaultConfig()
	if NewLDBNAdapt(m, cfg).Name() != "LD-BN-ADAPT" {
		t.Fatal("LDBNAdapt name")
	}
	if NewConvAdapt(m, cfg).Name() != "CONV-ADAPT" {
		t.Fatal("ConvAdapt name")
	}
	if NewFCAdapt(m, cfg).Name() != "FC-ADAPT" {
		t.Fatal("FCAdapt name")
	}
	if NewNoAdapt().Name() != "NoAdapt" {
		t.Fatal("NoAdapt name")
	}
}

func TestSourceTrainingWorked(t *testing.T) {
	f := getFixture(t)
	src := ufld.Evaluate(f.model, f.bench.SourceVal, 8).Accuracy
	if src < 0.7 {
		t.Fatalf("fixture source accuracy %.3f too low for meaningful tests", src)
	}
	tgt := ufld.Evaluate(f.model, f.bench.TargetVal, 8).Accuracy
	if tgt >= src {
		t.Fatalf("no domain gap: source %.3f target %.3f", src, tgt)
	}
}

func TestLDBNAdaptImprovesTargetAccuracy(t *testing.T) {
	f := getFixture(t)
	base := ufld.Evaluate(f.model, f.bench.TargetVal, 8).Accuracy
	m := f.model.Clone(f.rng.Split())
	meth := NewLDBNAdapt(m, DefaultConfig())
	res := RunOnline(m, meth, f.bench.TargetTrain, f.bench.TargetVal, 1)
	if res.FinalAccuracy <= base {
		t.Fatalf("LD-BN-ADAPT did not improve: %.4f → %.4f", base, res.FinalAccuracy)
	}
	if meth.Steps() != f.bench.TargetTrain.Len() {
		t.Fatalf("steps %d, want %d", meth.Steps(), f.bench.TargetTrain.Len())
	}
}

func TestLDBNAdaptTouchesOnlyBNParams(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	noWarm := DefaultConfig()
	noWarm.WarmupSteps = 0
	// Snapshot conv and FC weights.
	convBefore := make([]*tensor.Tensor, 0)
	for _, p := range m.ConvParams() {
		convBefore = append(convBefore, p.Value.Clone())
	}
	fcBefore := make([]*tensor.Tensor, 0)
	for _, p := range m.FCParams() {
		fcBefore = append(fcBefore, p.Value.Clone())
	}
	bnBefore := make([]*tensor.Tensor, 0)
	for _, p := range m.BNParams() {
		bnBefore = append(bnBefore, p.Value.Clone())
	}
	meth := NewLDBNAdapt(m, noWarm)
	x := ufld.Images(m.Cfg, f.bench.TargetTrain.Samples, []int{0, 1})
	meth.Adapt(x)
	for i, p := range m.ConvParams() {
		if !p.Value.AllClose(convBefore[i], 0) {
			t.Fatalf("conv param %s modified by LD-BN-ADAPT", p.Name)
		}
	}
	for i, p := range m.FCParams() {
		if !p.Value.AllClose(fcBefore[i], 0) {
			t.Fatalf("fc param %s modified by LD-BN-ADAPT", p.Name)
		}
	}
	changed := false
	for i, p := range m.BNParams() {
		if !p.Value.AllClose(bnBefore[i], 0) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("no BN parameter changed")
	}
}

func TestLDBNAdaptRefreshesRunningStats(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	before := m.BatchNorms()[0].RunningMean.Clone()
	meth := NewLDBNAdapt(m, DefaultConfig())
	meth.Adapt(ufld.Images(m.Cfg, f.bench.TargetTrain.Samples, []int{0}))
	if m.BatchNorms()[0].RunningMean.AllClose(before, 0) {
		t.Fatal("running stats not refreshed from target data")
	}
}

func TestConvAdaptTouchesOnlyConvParams(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	bnBefore := make([]*tensor.Tensor, 0)
	for _, p := range m.BNParams() {
		bnBefore = append(bnBefore, p.Value.Clone())
	}
	statsBefore := m.BatchNorms()[0].RunningMean.Clone()
	noWarm := DefaultConfig()
	noWarm.WarmupSteps = 0
	meth := NewConvAdapt(m, noWarm)
	meth.Adapt(ufld.Images(m.Cfg, f.bench.TargetTrain.Samples, []int{0, 1}))
	for i, p := range m.BNParams() {
		if !p.Value.AllClose(bnBefore[i], 0) {
			t.Fatalf("BN param %s modified by CONV-ADAPT", p.Name)
		}
	}
	// Conv adaptation runs in Eval mode: BN stats stay at source values.
	if !m.BatchNorms()[0].RunningMean.AllClose(statsBefore, 0) {
		t.Fatal("CONV-ADAPT must not touch BN running stats")
	}
	changed := false
	for _, p := range m.ConvParams() {
		for i := range p.Value.Data {
			if p.Grad.Data[i] != 0 || p.Value.Data[i] != 0 {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Fatal("conv params untouched")
	}
}

func TestFCAdaptTouchesOnlyFCParams(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	fcBefore := make([]*tensor.Tensor, 0)
	for _, p := range m.FCParams() {
		fcBefore = append(fcBefore, p.Value.Clone())
	}
	convBefore := m.ConvParams()[0].Value.Clone()
	noWarm := DefaultConfig()
	noWarm.WarmupSteps = 0
	meth := NewFCAdapt(m, noWarm)
	meth.Adapt(ufld.Images(m.Cfg, f.bench.TargetTrain.Samples, []int{0, 1}))
	if !m.ConvParams()[0].Value.AllClose(convBefore, 0) {
		t.Fatal("FC-ADAPT modified conv weights")
	}
	moved := false
	for i, p := range m.FCParams() {
		if !p.Value.AllClose(fcBefore[i], 0) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("FC params untouched")
	}
}

func TestNoAdaptChangesNothing(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	before := make([]*tensor.Tensor, 0)
	for _, p := range m.Params() {
		before = append(before, p.Value.Clone())
	}
	res := RunOnline(m, NewNoAdapt(), f.bench.TargetTrain, f.bench.TargetVal, 2)
	for i, p := range m.Params() {
		if !p.Value.AllClose(before[i], 0) {
			t.Fatalf("NoAdapt modified %s", p.Name)
		}
	}
	base := ufld.Evaluate(f.model, f.bench.TargetVal, 8).Accuracy
	if math.Abs(res.FinalAccuracy-base) > 1e-9 {
		t.Fatalf("NoAdapt final %.4f != baseline %.4f", res.FinalAccuracy, base)
	}
}

func TestAdaptReducesEntropyOnTarget(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	before := ufld.Evaluate(m, f.bench.TargetVal, 8).MeanEntropy
	meth := NewLDBNAdapt(m, DefaultConfig())
	RunOnline(m, meth, f.bench.TargetTrain, nil, 1)
	after := ufld.Evaluate(m, f.bench.TargetVal, 8).MeanEntropy
	if after >= before {
		t.Fatalf("prediction entropy did not decrease: %.4f → %.4f", before, after)
	}
}

func TestRunOnlineBatchAccounting(t *testing.T) {
	f := getFixture(t)
	n := f.bench.TargetTrain.Len()
	for _, bs := range []int{1, 2, 4, 5} {
		m := f.model.Clone(f.rng.Split())
		meth := NewLDBNAdapt(m, DefaultConfig())
		res := RunOnline(m, meth, f.bench.TargetTrain, nil, bs)
		if res.Frames != n {
			t.Fatalf("bs=%d: frames %d, want %d", bs, res.Frames, n)
		}
		wantSteps := (n + bs - 1) / bs
		if meth.Steps() != wantSteps {
			t.Fatalf("bs=%d: steps %d, want %d", bs, meth.Steps(), wantSteps)
		}
		if res.BatchSize != bs {
			t.Fatalf("bs mismatch in result")
		}
	}
}

func TestRunOnlineRejectsBadBatch(t *testing.T) {
	f := getFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("bs=0 accepted")
		}
	}()
	RunOnline(f.model.Clone(f.rng.Split()), NewNoAdapt(), f.bench.TargetTrain, nil, 0)
}

// TestAdaptationIsDeterministic: two runs of the paper's method on the
// fixture agree, and — the frozen-backward pin at RunOnline level — both
// equal the full-backward reference's OnlineResult field for field
// (online and final accuracy, mean loss, frame count).
func TestAdaptationIsDeterministic(t *testing.T) {
	f := getFixture(t)
	run := func(mk func(m *ufld.Model) Method) OnlineResult {
		m := f.model.Clone(tensor.NewRNG(1))
		return RunOnline(m, mk(m), f.bench.TargetTrain, f.bench.TargetVal, 2)
	}
	ldbn := func(m *ufld.Model) Method { return NewLDBNAdapt(m, DefaultConfig()) }
	a, b := run(ldbn), run(ldbn)
	if a != b {
		t.Fatalf("non-deterministic adaptation: %+v vs %+v", a, b)
	}
	if ref := run(func(m *ufld.Model) Method { return refLDBN(m, DefaultConfig()) }); a != ref {
		t.Fatalf("OnlineResult %+v, full-backward reference %+v", a, ref)
	}
}

func TestAdaptedParamCountIsSmall(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	meth := NewLDBNAdapt(m, DefaultConfig())
	frac := float64(meth.AdaptedParamCount()) / float64(nn.ParamCount(m.Params()))
	// The paper: BN params ≈1% of the model. The tiny test model is
	// less extreme but the set must still be a small fraction.
	if frac > 0.10 {
		t.Fatalf("BN params are %.1f%% of the model — not lightweight", 100*frac)
	}
}

func TestConfidenceLossVariantRuns(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	cfg := DefaultConfig()
	cfg.Loss = Confidence
	meth := NewLDBNAdapt(m, cfg)
	res := RunOnline(m, meth, f.bench.TargetTrain, f.bench.TargetVal, 2)
	if res.FinalAccuracy <= 0 || res.FinalAccuracy > 1 {
		t.Fatalf("confidence-loss accuracy %v out of range", res.FinalAccuracy)
	}
}

func TestBatchSizeOneMatchesPaperBestOrdering(t *testing.T) {
	// The paper's Fig. 2 finding: bs=1 (adapt after every frame) gives
	// the best accuracy among {1, 2, 4}. The tiny fixture is noisy, so
	// assert the weaker, always-true part: every batch size improves on
	// no adaptation.
	f := getFixture(t)
	base := ufld.Evaluate(f.model, f.bench.TargetVal, 8).Accuracy
	for _, bs := range []int{1, 2, 4} {
		m := f.model.Clone(f.rng.Split())
		res := RunOnline(m, NewLDBNAdapt(m, DefaultConfig()), f.bench.TargetTrain, f.bench.TargetVal, bs)
		if res.FinalAccuracy < base {
			t.Fatalf("bs=%d degraded accuracy: %.4f < %.4f", bs, res.FinalAccuracy, base)
		}
	}
}

// scriptedLossMethod is a Method+LossReporter whose per-step losses are
// scripted, so RunOnline's mean-loss accounting can be pinned exactly.
type scriptedLossMethod struct {
	losses []float64
	valid  []bool
	steps  int
}

func (s *scriptedLossMethod) Name() string               { return "scripted" }
func (s *scriptedLossMethod) Adapt(batch *tensor.Tensor) { s.steps++ }
func (s *scriptedLossMethod) Steps() int                 { return s.steps }
func (s *scriptedLossMethod) LastStepLoss() (float64, bool) {
	i := s.steps - 1
	if i < 0 || i >= len(s.losses) {
		return 0, false
	}
	return s.losses[i], s.valid[i]
}

// TestRunOnlineMeanLossIsTrueMean is the regression test for the
// MeanLoss accounting: the documented *mean* unsupervised loss over
// adaptation steps, not the last step's loss, and steps that computed
// no loss (skipped warmup forwards) are excluded from the mean.
func TestRunOnlineMeanLossIsTrueMean(t *testing.T) {
	f := getFixture(t)
	n := f.bench.TargetTrain.Len()
	bs := 2
	steps := (n + bs - 1) / bs
	meth := &scriptedLossMethod{losses: make([]float64, steps), valid: make([]bool, steps)}
	for i := range meth.losses {
		meth.losses[i] = float64(i + 1) // 1, 2, 3, ... — mean ≠ last
		meth.valid[i] = true
	}
	meth.valid[0] = false // a warmup-style step with no loss
	m := f.model.Clone(f.rng.Split())
	res := RunOnline(m, meth, f.bench.TargetTrain, nil, bs)
	want, cnt := 0.0, 0
	for i := 1; i < steps; i++ {
		want += meth.losses[i]
		cnt++
	}
	want /= float64(cnt)
	if math.Abs(res.MeanLoss-want) > 1e-12 {
		t.Fatalf("MeanLoss %.6f, want mean-over-valid-steps %.6f (last loss %.6f)",
			res.MeanLoss, want, meth.losses[steps-1])
	}
	if res.MeanLoss == meth.losses[steps-1] {
		t.Fatal("MeanLoss still reports the final step's loss")
	}
}

// TestRunOnlineMeanLossForAblations: the entropy ablations now report
// losses too — RunOnline must surface a nonzero mean for them, not
// only for LD-BN-ADAPT.
func TestRunOnlineMeanLossForAblations(t *testing.T) {
	f := getFixture(t)
	for _, mk := range []struct {
		name string
		make func(m *ufld.Model) Method
	}{
		{"ldbn", func(m *ufld.Model) Method { return NewLDBNAdapt(m, DefaultConfig()) }},
		{"conv", func(m *ufld.Model) Method {
			cfg := DefaultConfig()
			cfg.LR /= 10
			return NewConvAdapt(m, cfg)
		}},
		{"fc", func(m *ufld.Model) Method {
			cfg := DefaultConfig()
			cfg.LR /= 10
			return NewFCAdapt(m, cfg)
		}},
	} {
		m := f.model.Clone(f.rng.Split())
		res := RunOnline(m, mk.make(m), f.bench.TargetTrain, nil, 2)
		if res.MeanLoss <= 0 {
			t.Fatalf("%s: MeanLoss %.6f, want > 0", mk.name, res.MeanLoss)
		}
	}
}

// TestAblationWarmupSkipsDeadForward: Conv/FC warmup steps have no BN
// statistics to refresh, so they must not run (and report) a forward;
// updates still start only after WarmupSteps batches.
func TestAblationWarmupSkipsDeadForward(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultConfig()
	cfg.LR /= 10
	cfg.WarmupSteps = 2
	m := f.model.Clone(f.rng.Split())
	meth := NewConvAdapt(m, cfg)
	before := make([]*tensor.Tensor, 0)
	for _, p := range m.ConvParams() {
		before = append(before, p.Value.Clone())
	}
	x := ufld.Images(m.Cfg, f.bench.TargetTrain.Samples, []int{0})
	for step := 0; step < 2; step++ {
		meth.Adapt(x)
		if _, ok := meth.LastStepLoss(); ok {
			t.Fatalf("warmup step %d reported a loss — dead forward still runs", step)
		}
		for i, p := range m.ConvParams() {
			if !p.Value.AllClose(before[i], 0) {
				t.Fatalf("warmup step %d moved %s", step, p.Name)
			}
		}
	}
	meth.Adapt(x)
	if loss, ok := meth.LastStepLoss(); !ok || loss <= 0 {
		t.Fatalf("post-warmup step loss (%v, %v), want a positive entropy", loss, ok)
	}
	moved := false
	for i, p := range m.ConvParams() {
		if !p.Value.AllClose(before[i], 0) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("post-warmup step left conv weights untouched")
	}
	if meth.Steps() != 3 {
		t.Fatalf("steps %d, want 3 (warmup steps still count)", meth.Steps())
	}
}
