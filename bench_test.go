// Root-package sanity test: a tiny MoLane source model, trained for 3
// epochs on 40 frames, must learn its own source split. Performance is
// measured by the benchmark in bench/ (BENCHMARK.json,
// `bash bench/run.sh`), not here.
package ldbnadapt_test

import (
	"testing"

	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// TestBenchFixtureIsSane trains the tiny source model and asks that it
// beat chance on its own source validation split.
func TestBenchFixtureIsSane(t *testing.T) {
	rng := tensor.NewRNG(1234)
	bench := carlane.Build(carlane.MoLane, resnet.R18, ufld.Tiny,
		carlane.Sizes{SourceTrain: 40, SourceVal: 8, TargetTrain: 32, TargetVal: 16}, 55)
	m := ufld.MustNewModel(bench.Cfg, rng)
	tc := ufld.DefaultTrainConfig()
	tc.Epochs = 3
	if _, err := ufld.TrainSource(m, bench.SourceTrain, tc, rng.Split()); err != nil {
		t.Fatal(err)
	}
	if acc := ufld.Evaluate(m, bench.SourceVal, 8).Accuracy; acc < 0.3 {
		t.Fatalf("fixture source accuracy %.3f — training failed", acc)
	}
}
