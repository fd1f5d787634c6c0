package stream_test

import (
	"sync"
	"testing"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// The tests here replay one camera source through the serving engine
// at one worker and one frame per batch — the paper's single-camera
// loop — and check the Fig. 3 verdicts on it.

type deployFixture struct {
	bench *carlane.Benchmark
	model *ufld.Model
	rng   *tensor.RNG
}

var (
	deployOnce sync.Once
	deploy     deployFixture
)

func getDeployFixture(t *testing.T) *deployFixture {
	t.Helper()
	deployOnce.Do(func() {
		rng := tensor.NewRNG(99)
		b := carlane.Build(carlane.MoLane, resnet.R18, ufld.Tiny,
			carlane.Sizes{SourceTrain: 40, SourceVal: 12, TargetTrain: 24, TargetVal: 16}, 13)
		m := ufld.MustNewModel(b.Cfg, rng)
		tc := ufld.DefaultTrainConfig()
		tc.Epochs = 4
		if _, err := ufld.TrainSource(m, b.SourceTrain, tc, rng.Split()); err != nil {
			panic(err)
		}
		deploy = deployFixture{bench: b, model: m, rng: rng}
	})
	return &deploy
}

// serveOne runs src through a fresh clone of the fixture model on the
// engine's serial configuration.
func serveOne(f *deployFixture, src *stream.Source, cfg serve.Config) serve.Report {
	cfg.Workers, cfg.MaxBatch = 1, 1
	cfg.Adapt = adapt.DefaultConfig()
	cfg.DeadlineMs = orin.Deadline30FPS
	return serve.New(f.model.Clone(f.rng.Split()), cfg).Run([]*stream.Source{src})
}

func TestRunMeets30FPSWithR18At60W(t *testing.T) {
	f := getDeployFixture(t)
	src := stream.NewSource(f.bench.TargetTrain, 30)
	res := serveOne(f, src, serve.Config{AdaptEvery: 1, Mode: orin.Mode60W})
	// The paper's headline: R-18 at 60 W meets every 33.3 ms deadline.
	if res.MissRate != 0 {
		t.Fatalf("R-18@60W miss rate %.2f, want 0", res.MissRate)
	}
	if res.Streams[0].AdaptSteps != len(src.Frames) {
		t.Fatalf("bs=1 must adapt once per frame: %d vs %d", res.Streams[0].AdaptSteps, len(src.Frames))
	}
	if res.OnlineAccuracy <= 0 || res.OnlineAccuracy > 1 {
		t.Fatalf("online accuracy %v", res.OnlineAccuracy)
	}
}

func TestRunMissesDeadlineAtLowPower(t *testing.T) {
	f := getDeployFixture(t)
	src := stream.NewSource(f.bench.TargetTrain, 30)
	res := serveOne(f, src, serve.Config{AdaptEvery: 1, Mode: orin.Mode15W})
	// 15 W misses every frame per Fig. 3.
	if res.MissRate != 1 {
		t.Fatalf("R-18@15W miss rate %.2f, want 1", res.MissRate)
	}
}

func TestRunNoAdaptIsCheaper(t *testing.T) {
	f := getDeployFixture(t)
	src := stream.NewSource(f.bench.TargetTrain, 30)
	withAdapt := serveOne(f, src, serve.Config{AdaptEvery: 1, Mode: orin.Mode60W})
	noAdapt := serveOne(f, src, serve.Config{AdaptEvery: 0, Mode: orin.Mode60W})
	if noAdapt.Streams[0].MeanLatencyMs >= withAdapt.Streams[0].MeanLatencyMs {
		t.Fatal("inference-only must be cheaper than inference+adaptation")
	}
}

func TestOverloadNoShedWhenFast(t *testing.T) {
	f := getDeployFixture(t)
	src := stream.NewSource(f.bench.TargetTrain, 30)
	// 60 W fits the budget: nothing is shed under any policy.
	for _, pol := range []stream.OverloadPolicy{stream.DropNone, stream.SkipAdapt, stream.DropFrames} {
		res := serveOne(f, src, serve.Config{AdaptEvery: 1, Mode: orin.Mode60W, Policy: pol})
		if res.FramesDropped != 0 || res.AdaptsSkipped != 0 {
			t.Fatalf("%v: shed work despite meeting the deadline", pol)
		}
		if res.Frames != len(src.Frames) {
			t.Fatalf("%v: frames missing", pol)
		}
	}
}
