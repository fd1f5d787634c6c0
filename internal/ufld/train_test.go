package ufld

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
)

// tinyDataset builds n trivially-learnable samples (same scene).
func tinyDataset(cfg Config, n int, rng *tensor.RNG) *Dataset {
	ds := &Dataset{Name: "toy", Domain: "sim"}
	for i := 0; i < n; i++ {
		img := tensor.New(3, cfg.InputH, cfg.InputW)
		rng.FillUniform(img, 0, 0.1)
		cells := make([]int, cfg.Groups())
		for lane := 0; lane < cfg.Lanes; lane++ {
			cell := (lane*cfg.GridCells/cfg.Lanes + cfg.GridCells/4) % cfg.GridCells
			x := (cell * cfg.InputW) / cfg.GridCells
			for a := 0; a < cfg.RowAnchors; a++ {
				cells[lane*cfg.RowAnchors+a] = cell
			}
			// Draw a bright vertical stripe at the labeled cell.
			for y := cfg.InputH / 3; y < cfg.InputH; y++ {
				for dx := 0; dx < 2 && x+dx < cfg.InputW; dx++ {
					img.Set(0.95, 0, y, x+dx)
					img.Set(0.95, 1, y, x+dx)
					img.Set(0.95, 2, y, x+dx)
				}
			}
		}
		ds.Samples = append(ds.Samples, Sample{Image: img, Cells: cells})
	}
	return ds
}

func TestTrainSourceRejectsBadInput(t *testing.T) {
	rng := tensor.NewRNG(1)
	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, rng)
	if _, err := TrainSource(m, &Dataset{}, DefaultTrainConfig(), rng); err == nil {
		t.Fatal("empty dataset accepted")
	}
	bad := DefaultTrainConfig()
	bad.BatchSize = 0
	ds := tinyDataset(cfg, 4, rng)
	if _, err := TrainSource(m, ds, bad, rng); err == nil {
		t.Fatal("batch size 0 accepted")
	}
}

func TestTrainSourceLearnsToyTask(t *testing.T) {
	rng := tensor.NewRNG(2)
	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, rng)
	ds := tinyDataset(cfg, 12, rng)
	tc := DefaultTrainConfig()
	tc.Epochs = 20
	tc.BatchSize = 4
	tc.LR = 4e-3
	var log strings.Builder
	tc.Log = &log
	last, err := TrainSource(m, ds, tc, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if last > 1.0 {
		t.Fatalf("final loss %.3f did not converge on a trivial task", last)
	}
	if !strings.Contains(log.String(), "epoch 1/20") {
		t.Fatal("training log missing")
	}
	acc := Evaluate(m, ds, 4).Accuracy
	if acc < 0.85 {
		t.Fatalf("toy-task accuracy %.3f, want ≥ 0.85", acc)
	}
}

// TestTrainSourceInvalidatesWeightCaches: training writes new weights,
// so a model whose int8 tables were built before it must not keep
// serving them. Its int8 logits after training are bitwise a fresh
// clone's, which quantizes the trained weights from scratch.
func TestTrainSourceInvalidatesWeightCaches(t *testing.T) {
	rng := tensor.NewRNG(3)
	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, rng)
	x := tensor.New(1, 3, cfg.InputH, cfg.InputW)
	rng.FillNormal(x, 0.4, 0.3)
	m.ForwardInferInt8(x) // builds the int8 tables from the initial weights
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	if _, err := TrainSource(m, tinyDataset(cfg, 8, rng), tc, rng.Split()); err != nil {
		t.Fatal(err)
	}
	got := m.ForwardInferInt8(x).Clone()
	want := m.Clone(tensor.NewRNG(4)).ForwardInferInt8(x)
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("logit %d reads %v after training, a fresh clone gives %v: stale int8 weights", i, got.Data[i], want.Data[i])
		}
	}
}

// TestTrainSourceRetainsNoTrainingState: the Train-mode lowerings, the
// activation caches and the backward scratches of source training die
// with the call, so a trained model holds no more heap than about a
// freshly built one. Not parallel: it reads the process heap.
func TestTrainSourceRetainsNoTrainingState(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	heapOf := func(build func() *Model) uint64 {
		runtime.GC()
		before := liveHeap()
		m := build()
		runtime.GC()
		after := liveHeap()
		runtime.KeepAlive(m)
		if after < before {
			return 0
		}
		return after - before
	}
	fresh := heapOf(func() *Model { return MustNewModel(cfg, tensor.NewRNG(5)) })
	ds := tinyDataset(cfg, 16, tensor.NewRNG(6))
	trained := heapOf(func() *Model {
		m := MustNewModel(cfg, tensor.NewRNG(5))
		tc := DefaultTrainConfig()
		tc.Epochs, tc.BatchSize = 1, 8
		if _, err := TrainSource(m, ds, tc, tensor.NewRNG(7)); err != nil {
			t.Fatal(err)
		}
		return m
	})
	if trained > 2*fresh {
		t.Fatalf("trained model retains %d B, a fresh one %d B: training state outlived TrainSource", trained, fresh)
	}
}

// liveHeap returns the bytes of live heap objects.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestNewModelRejectsInvalidConfig(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	cfg.GridCells = 0
	if _, err := NewModel(cfg, tensor.NewRNG(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewModel did not panic")
		}
	}()
	MustNewModel(cfg, tensor.NewRNG(1))
}

func TestForwardRejectsWrongGeometry(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, tensor.NewRNG(3))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size accepted")
		}
	}()
	m.Forward(tensor.New(1, 3, cfg.InputH+2, cfg.InputW), 0)
}

// TestPooledStemTrainStep runs a Train forward and Backward over a
// small-width backbone with the full-scale max-pooled stem, every
// parameter trainable: layer1's first conv retains the pool's output
// for its weight gradient, so that output must stay the pool's own
// buffer and not an arena slot (make retain-check panics if it
// changed before the conv's Backward). Backward returns nil, since the
// stem computes no image gradient, and the gradients are finite and
// the same when the step is repeated.
func TestPooledStemTrainStep(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	cfg.Backbone.StemPool = true
	m := MustNewModel(cfg, tensor.NewRNG(41))
	ds := tinyDataset(cfg, 3, tensor.NewRNG(42))
	x, targets := Batch(cfg, ds.Samples, []int{0, 1, 2})
	params := m.Params()
	step := func() []float32 {
		nn.ZeroGrads(params)
		_, grad := nn.CrossEntropyRows(m.Forward(x, nn.Train), targets)
		if dx := m.Backward(grad); dx != nil {
			t.Fatal("Backward returned an image gradient")
		}
		var all []float32
		for _, p := range params {
			if p.Grad == nil {
				t.Fatalf("%s: no gradient", p.Name)
			}
			all = append(all, p.Grad.Data...)
		}
		return all
	}
	first := step()
	for i, v := range first {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("gradient element %d is %v", i, v)
		}
	}
	m.Forward(x, nn.Eval) // rewrite the arena before the repeat
	for i, v := range step() {
		if math.Float32bits(v) != math.Float32bits(first[i]) {
			t.Fatalf("gradient element %d differs on a repeated step", i)
		}
	}
}
