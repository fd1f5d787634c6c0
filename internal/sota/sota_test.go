package sota

import (
	"math"
	"strings"
	"sync"
	"testing"

	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

type fixture struct {
	bench *carlane.Benchmark
	model *ufld.Model
	rng   *tensor.RNG
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		rng := tensor.NewRNG(77)
		b := carlane.Build(carlane.MoLane, resnet.R18, ufld.Tiny,
			carlane.Sizes{SourceTrain: 48, SourceVal: 16, TargetTrain: 32, TargetVal: 24}, 3)
		m := ufld.MustNewModel(b.Cfg, rng)
		tc := ufld.DefaultTrainConfig()
		tc.Epochs = 6
		if _, err := ufld.TrainSource(m, b.SourceTrain, tc, rng.Split()); err != nil {
			panic(err)
		}
		fix = fixture{bench: b, model: m, rng: rng}
	})
	return &fix
}

func TestName(t *testing.T) {
	f := getFixture(t)
	if New(f.model, DefaultConfig()).Name() != "CARLANE-SOTA" {
		t.Fatal("name wrong")
	}
}

func TestRunImprovesTargetAccuracy(t *testing.T) {
	f := getFixture(t)
	base := ufld.Evaluate(f.model, f.bench.TargetVal, 8).Accuracy
	m := f.model.Clone(f.rng.Split())
	cfg := DefaultConfig()
	cfg.Epochs = 2
	a := New(m, cfg)
	res, err := a.Run(f.bench.SourceTrain, f.bench.TargetTrain, tensor.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	after := ufld.Evaluate(m, f.bench.TargetVal, 8).Accuracy
	if after <= base {
		t.Fatalf("SOTA baseline did not improve target accuracy: %.4f → %.4f", base, after)
	}
	if len(res.EpochLosses) != 2 {
		t.Fatalf("epoch losses %v", res.EpochLosses)
	}
}

func TestCostAccounting(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	cfg := DefaultConfig()
	cfg.Epochs = 1
	a := New(m, cfg)
	res, err := a.Run(f.bench.SourceTrain, f.bench.TargetTrain, tensor.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cost
	// Every source sample passes through the full model once per epoch.
	if c.FullForwards < int64(f.bench.SourceTrain.Len()) {
		t.Fatalf("FullForwards %d too low", c.FullForwards)
	}
	if c.FullBackwards < int64(f.bench.SourceTrain.Len()) {
		t.Fatalf("FullBackwards %d too low", c.FullBackwards)
	}
	// Embedding pass covers the source set at least once per epoch.
	if c.BackboneForwards < int64(f.bench.SourceTrain.Len()) {
		t.Fatalf("BackboneForwards %d too low", c.BackboneForwards)
	}
	if c.KMeansPointIters <= 0 {
		t.Fatal("k-means work not recorded")
	}
	// The baseline's two defining costs versus LD-BN-ADAPT:
	if c.LabeledSourceSamples != f.bench.SourceTrain.Len() {
		t.Fatal("labeled source requirement not recorded")
	}
	if c.UpdatedParams != len(paramsFlat(m)) {
		t.Fatalf("UpdatedParams %d, want full model %d", c.UpdatedParams, len(paramsFlat(m)))
	}
}

// paramsFlat returns a flat view of all model parameter scalars.
func paramsFlat(m *ufld.Model) []float32 {
	var out []float32
	for _, p := range m.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

func TestRunUpdatesAllParameterKinds(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	convBefore := m.ConvParams()[0].Value.Clone()
	fcBefore := m.FCParams()[0].Value.Clone()
	bnBefore := m.BNParams()[0].Value.Clone()
	cfg := DefaultConfig()
	cfg.Epochs = 1
	if _, err := New(m, cfg).Run(f.bench.SourceTrain, f.bench.TargetTrain, tensor.NewRNG(11)); err != nil {
		t.Fatal(err)
	}
	if m.ConvParams()[0].Value.AllClose(convBefore, 0) {
		t.Fatal("conv weights not updated — baseline must retrain the full model")
	}
	if m.FCParams()[0].Value.AllClose(fcBefore, 0) {
		t.Fatal("fc weights not updated")
	}
	if m.BNParams()[0].Value.AllClose(bnBefore, 0) {
		t.Fatal("bn params not updated")
	}
}

// TestRunRefreshesInt8Cache pins that Run drops the int8 tables
// quantized from the weights it retrains: afterwards the int8 forward
// equals, bit for bit, that of a fresh clone, which quantizes the new
// weights from scratch.
func TestRunRefreshesInt8Cache(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	x := ufld.Images(m.Cfg, f.bench.TargetVal.Samples, []int{0, 1})
	m.ForwardInferInt8(x) // quantize the source weights
	cfg := DefaultConfig()
	cfg.Epochs = 1
	if _, err := New(m, cfg).Run(f.bench.SourceTrain, f.bench.TargetTrain, tensor.NewRNG(12)); err != nil {
		t.Fatal(err)
	}
	got := m.ForwardInferInt8(x).Clone()
	want := m.Clone(f.rng.Split()).ForwardInferInt8(x)
	n := 0
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			n++
		}
	}
	if n > 0 {
		t.Fatalf("%d of %d int8 logits differ from a fresh clone's after Run", n, len(want.Data))
	}
}

func TestRunRejectsEmptyData(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	empty := &ufld.Dataset{Name: "empty"}
	if _, err := New(m, DefaultConfig()).Run(empty, f.bench.TargetTrain, tensor.NewRNG(1)); err == nil {
		t.Fatal("empty source accepted")
	}
	if _, err := New(m, DefaultConfig()).Run(f.bench.SourceTrain, empty, tensor.NewRNG(1)); err == nil {
		t.Fatal("empty target accepted")
	}
	bad := DefaultConfig()
	bad.Epochs = 0
	if _, err := New(m, bad).Run(f.bench.SourceTrain, f.bench.TargetTrain, tensor.NewRNG(1)); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestLogOutput(t *testing.T) {
	f := getFixture(t)
	m := f.model.Clone(f.rng.Split())
	var sb strings.Builder
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.Log = &sb
	if _, err := New(m, cfg).Run(f.bench.SourceTrain, f.bench.TargetTrain, tensor.NewRNG(12)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sota epoch 1/1") {
		t.Fatalf("log output missing: %q", sb.String())
	}
}

func TestEmbedShape(t *testing.T) {
	f := getFixture(t)
	// A Train-mode forward updates BN running statistics, so embed with a
	// clone and leave the shared fixture model as TestSOTAFingerprint
	// expects it whatever order the tests run in.
	m := f.model.Clone(tensor.NewRNG(1))
	x := ufld.Images(m.Cfg, f.bench.SourceTrain.Samples, []int{0, 1, 2})
	emb := m.Embed(x, 0 /* Train */)
	if emb.Dim(0) != 3 || emb.Dim(1) != m.Backbone().OutChannels() {
		t.Fatalf("embedding shape %v", emb.Shape())
	}
}
