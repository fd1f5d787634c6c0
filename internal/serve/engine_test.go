package serve

import (
	"fmt"
	"testing"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/resnet"
)

// TestEngineServesEveryFrame drives a small fleet through the engine
// and checks the bookkeeping invariants: every frame of every stream
// is served exactly once, adaptation fires exactly once per full
// window, and the aggregates are consistent.
func TestEngineServesEveryFrame(t *testing.T) {
	m := testModel(21)
	const streams, frames = 3, 10
	fleet := SyntheticFleet(m.Cfg, streams, frames, 30, 77)
	e := New(m, Config{
		Variant:    resnet.R18,
		Workers:    2,
		MaxBatch:   4,
		Window:     2 * time.Millisecond,
		AdaptEvery: 2,
		Adapt:      adapt.DefaultConfig(),
	})
	rep := e.Run(fleet)

	if rep.Frames != streams*frames {
		t.Fatalf("served %d frames, want %d", rep.Frames, streams*frames)
	}
	if rep.Batches < 1 || rep.Batches > rep.Frames {
		t.Fatalf("implausible batch count %d", rep.Batches)
	}
	if rep.MeanBatch < 1 || rep.MeanBatch > 4 {
		t.Fatalf("mean batch %f outside [1,4]", rep.MeanBatch)
	}
	for si, sr := range rep.Streams {
		if sr.Frames != frames {
			t.Fatalf("stream %d served %d frames, want %d", si, sr.Frames, frames)
		}
		if want := frames / 2; sr.AdaptSteps != want {
			t.Fatalf("stream %d ran %d adapt steps, want %d", si, sr.AdaptSteps, want)
		}
		if sr.OnlineAccuracy < 0 || sr.OnlineAccuracy > 1 {
			t.Fatalf("stream %d accuracy %f outside [0,1]", si, sr.OnlineAccuracy)
		}
		if sr.MeanLatencyMs <= 0 || sr.P50LatencyMs <= 0 || sr.P99LatencyMs < sr.P50LatencyMs {
			t.Fatalf("stream %d latency summary inconsistent: %+v", si, sr)
		}
		if sr.MaxLatencyMs < sr.P99LatencyMs {
			t.Fatalf("stream %d max latency below p99: %+v", si, sr)
		}
	}
	if rep.ThroughputFPS <= 0 {
		t.Fatal("throughput must be positive")
	}
}

// TestEngineNoAdapt asserts AdaptEvery=0 serves inference-only.
func TestEngineNoAdapt(t *testing.T) {
	m := testModel(22)
	fleet := SyntheticFleet(m.Cfg, 2, 6, 30, 5)
	e := New(m, Config{Workers: 1, MaxBatch: 4, AdaptEvery: 0})
	rep := e.Run(fleet)
	if rep.Frames != 12 {
		t.Fatalf("served %d frames, want 12", rep.Frames)
	}
	for si, sr := range rep.Streams {
		if sr.AdaptSteps != 0 {
			t.Fatalf("stream %d adapted %d times with adaptation disabled", si, sr.AdaptSteps)
		}
	}
}

// TestEngineConcurrentStreams is the race-coverage workload: ≥8
// concurrent streams multiplexed over 4 worker replicas, with
// adaptation enabled so the shared-weights and per-stream-BN paths all
// execute under contention. Run via `go test -race ./internal/serve`.
// The existing internal/tensor matmul worker pool is also exercised
// (inference matmuls cross its parallel threshold) and was audited for
// races along with this test: its row-band partitioning writes
// disjoint dst slices, so no fix was required.
func TestEngineConcurrentStreams(t *testing.T) {
	m := testModel(23)
	const streams, frames = 8, 8
	fleet := SyntheticFleet(m.Cfg, streams, frames, 30, 123)
	e := New(m, Config{
		Workers:    4,
		MaxBatch:   8,
		Window:     time.Millisecond,
		AdaptEvery: 4,
		Adapt:      adapt.DefaultConfig(),
	})
	rep := e.Run(fleet)
	if rep.Frames != streams*frames {
		t.Fatalf("served %d frames, want %d", rep.Frames, streams*frames)
	}
	for si, sr := range rep.Streams {
		if sr.Frames != frames {
			t.Fatalf("stream %d served %d frames, want %d", si, sr.Frames, frames)
		}
		if sr.AdaptSteps != frames/4 {
			t.Fatalf("stream %d ran %d adapt steps, want %d", si, sr.AdaptSteps, frames/4)
		}
	}
}

// TestEngineAdaptationIsPerStream asserts stream isolation: after a
// run, different streams must hold different BN snapshots (they saw
// different data), and all must differ from the source model (they
// adapted at all). This is the per-stream state-isolation contract.
func TestEngineAdaptationIsPerStream(t *testing.T) {
	m := testModel(24)
	fleet := SyntheticFleet(m.Cfg, 2, 8, 30, 9)
	e := New(m, Config{Workers: 2, MaxBatch: 4, AdaptEvery: 2, Adapt: adapt.Config{LR: 1e-2, UseAdam: true}})

	// Run through the internals to keep the states inspectable. Every
	// second frame per stream completes its AdaptEvery=2 window, which
	// the scheduler would tag adaptStep.
	states := make([]*streamState, 2)
	for i := range states {
		states[i] = newStreamState(m)
	}
	wk := e.newWorker()
	for fi := 0; fi < 8; fi++ {
		action := adaptNone
		if fi%2 == 1 {
			action = adaptStep
		}
		batch := plannedBatch{frames: []plannedFrame{
			{stream: 0, frame: fleet[0].Frames[fi], action: action, windowed: true},
			{stream: 1, frame: fleet[1].Frames[fi], action: action, windowed: true},
		}}
		wk.serve(batch, states)
	}

	diffAB, diffA := 0.0, 0.0
	base := newStreamState(m)
	for j := range states[0].bn {
		for c := range states[0].bn[j].Mean {
			dAB := float64(states[0].bn[j].Mean[c] - states[1].bn[j].Mean[c])
			dA := float64(states[0].bn[j].Mean[c] - base.bn[j].Mean[c])
			diffAB += dAB * dAB
			diffA += dA * dA
		}
	}
	if diffA == 0 {
		t.Fatal("stream 0 never adapted its BN statistics")
	}
	if diffAB == 0 {
		t.Fatal("streams share identical adapted state — isolation broken")
	}
	// The source model itself must be untouched by serving.
	for j, b := range m.BatchNorms() {
		for c := range base.bn[j].Mean {
			if b.RunningMean.Data[c] != base.bn[j].Mean[c] {
				t.Fatalf("deployed model's %s running mean mutated by serving", b.Name())
			}
		}
	}
}

// TestSyntheticFleetShapes sanity-checks the fleet generator.
func TestSyntheticFleetShapes(t *testing.T) {
	m := testModel(25)
	fleet := SyntheticFleet(m.Cfg, 3, 5, 30, 1)
	if len(fleet) != 3 {
		t.Fatalf("fleet size %d, want 3", len(fleet))
	}
	for i, src := range fleet {
		if len(src.Frames) != 5 {
			t.Fatalf("stream %d has %d frames, want 5", i, len(src.Frames))
		}
	}
	// Distinct seeds must give distinct first frames.
	a := fleet[0].Frames[0].Sample.Image
	b := fleet[1].Frames[0].Sample.Image
	if a.AllClose(b, 0) {
		t.Fatal("streams render identical frames")
	}
}

// TestUnbatchedEveryFrameBaseline exercises the reference deployment
// on the engine: one worker, every frame adapts, nothing batches.
func TestUnbatchedEveryFrameBaseline(t *testing.T) {
	m := testModel(26)
	fleet := SyntheticFleet(m.Cfg, 2, 4, 30, 3)
	rep := New(m, Config{Workers: 1, MaxBatch: 1, AdaptEvery: 1, Adapt: adapt.DefaultConfig()}).Run(fleet)
	if rep.Frames != 8 {
		t.Fatalf("served %d frames, want 8", rep.Frames)
	}
	if rep.MeanBatch != 1 {
		t.Fatalf("naive baseline batched (mean batch %f)", rep.MeanBatch)
	}
	for si, sr := range rep.Streams {
		if sr.AdaptSteps != 4 {
			t.Fatalf("stream %d: %d adapt steps, want one per frame", si, sr.AdaptSteps)
		}
	}
}

// TestReportIndependentOfWorkerScheduling pins that host goroutine
// scheduling never reaches the report: with adaptation off no worker's
// output depends on another's, so four workers racing over 128
// single-frame batches must render the same report on every run, host
// timing aside. The report sums frames in plan order; summed in the
// order workers finished them, mean latency and mean queue wait moved
// in their last bits from run to run.
func TestReportIndependentOfWorkerScheduling(t *testing.T) {
	m := testModel(27)
	fleet := SyntheticFleet(m.Cfg, 2, 64, 240, 41)
	e := New(m, Config{Workers: 4, MaxBatch: 1, AdaptEvery: 0})
	var want string
	for run := 0; run < 7; run++ {
		rep := e.Run(fleet)
		rep.WallSeconds, rep.ThroughputFPS = 0, 0
		got := fmt.Sprintf("%+v", rep)
		if run == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d report differs from run 0:\n got %s\nwant %s", run, got, want)
		}
	}
}
