package serve

import (
	"testing"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/stream"
)

// overloadConfig builds a deployment that one worker cannot sustain:
// three 30 FPS cameras against the 15 W mode, whose priced frame cost
// is several camera periods (Fig. 3 places 15 W far over the 33 ms
// budget even for a single camera).
func overloadConfig(policy stream.OverloadPolicy) Config {
	return Config{
		Variant:    resnet.R18,
		Workers:    1,
		MaxBatch:   4,
		Window:     2 * time.Millisecond,
		AdaptEvery: 2,
		Adapt:      adapt.DefaultConfig(),
		Mode:       orin.Mode15W,
		Policy:     policy,
	}
}

// TestSchedUnderloadedNearZeroQueue: when every stream's work fits its
// camera period with room to spare, measured queue waits collapse to
// (at most) the batching grace and nothing is shed — the event-time
// scheduler must not invent queueing that is not there, and no overload
// policy may shed work a fast board keeps up with.
func TestSchedUnderloadedNearZeroQueue(t *testing.T) {
	m := testModel(41)
	// 5 FPS (200 ms period) at 60 W: per-period work is tens of ms.
	fleet := SyntheticFleet(m.Cfg, 2, 8, 5, 7)
	for _, policy := range []stream.OverloadPolicy{stream.DropNone, stream.SkipAdapt, stream.DropFrames} {
		e := New(m, Config{
			Workers:    1,
			MaxBatch:   2, // both streams arrive together: batch fills instantly
			Window:     2 * time.Millisecond,
			AdaptEvery: 2,
			Adapt:      adapt.DefaultConfig(),
			Mode:       orin.Mode60W,
			Policy:     policy,
		})
		rep := e.Run(fleet)
		if rep.Frames != 16 {
			t.Fatalf("%v: served %d frames, want 16", policy, rep.Frames)
		}
		if rep.MaxQueueDepth > 1 {
			t.Fatalf("%v: underloaded fleet reached queue depth %d", policy, rep.MaxQueueDepth)
		}
		windowMs := 2.0
		for si, sr := range rep.Streams {
			if sr.MaxQueueMs > windowMs+1e-9 {
				t.Fatalf("%v: stream %d max queue wait %.3f ms exceeds the %.1f ms batching grace", policy, si, sr.MaxQueueMs, windowMs)
			}
		}
		if rep.FramesDropped != 0 || rep.AdaptsSkipped != 0 {
			t.Fatalf("%v: underloaded fleet shed work: %d dropped, %d skipped", policy, rep.FramesDropped, rep.AdaptsSkipped)
		}
		// Synchronized arrivals fill the MaxBatch=2 batch the instant it
		// opens, so the wait is not even the window grace — it is zero.
		if rep.MeanQueueMs > 1e-9 {
			t.Fatalf("%v: mean queue wait %.6f ms, want 0", policy, rep.MeanQueueMs)
		}
	}
}

// TestSchedDropNoneQueueGrowsUnbounded: an overloaded fleet under
// DropNone serves everything, so the backlog — and every later frame's
// measured wait — keeps growing for the whole run.
func TestSchedDropNoneQueueGrowsUnbounded(t *testing.T) {
	m := testModel(42)
	fleet := SyntheticFleet(m.Cfg, 3, 12, 30, 13)
	rep := New(m, overloadConfig(stream.DropNone)).Run(fleet)
	if rep.Frames != 36 {
		t.Fatalf("DropNone served %d frames, want all 36", rep.Frames)
	}
	if rep.FramesDropped != 0 || rep.AdaptsSkipped != 0 {
		t.Fatalf("DropNone shed work: %d dropped, %d skipped", rep.FramesDropped, rep.AdaptsSkipped)
	}
	periodMs := 1000.0 / 30.0
	if rep.P99QueueMs < 3*periodMs {
		t.Fatalf("overloaded DropNone p99 queue wait %.1f ms — expected runaway growth ≫ %.1f ms period", rep.P99QueueMs, periodMs)
	}
	// Latency must vary with load: the backlog makes late frames far
	// slower than early ones.
	for si, sr := range rep.Streams {
		if sr.MaxLatencyMs <= sr.P50LatencyMs {
			t.Fatalf("stream %d latency flat (p50 %.1f ms, max %.1f ms) — not load-dependent", si, sr.P50LatencyMs, sr.MaxLatencyMs)
		}
	}
}

// TestSchedDropFramesBoundsQueueWait: DropFrames sheds frames older
// than the backlog cap at dispatch time, so every frame actually
// served waited at most Backlog camera periods — the virtual clock
// stays within one period of arrivals at the default cap.
func TestSchedDropFramesBoundsQueueWait(t *testing.T) {
	m := testModel(43)
	const streams, frames = 3, 12
	fleet := SyntheticFleet(m.Cfg, streams, frames, 30, 17)
	rep := New(m, overloadConfig(stream.DropFrames)).Run(fleet)
	if rep.FramesDropped == 0 {
		t.Fatal("overloaded DropFrames dropped nothing")
	}
	if rep.Frames+rep.FramesDropped != streams*frames {
		t.Fatalf("served %d + dropped %d != %d total", rep.Frames, rep.FramesDropped, streams*frames)
	}
	periodMs := 1000.0 / 30.0
	for si, sr := range rep.Streams {
		if sr.MaxQueueMs > periodMs+1e-9 {
			t.Fatalf("stream %d served a frame after %.1f ms queue wait — beyond the %.1f ms backlog cap", si, sr.MaxQueueMs, periodMs)
		}
	}
}

// TestSchedSkipAdaptShedsSteps: SkipAdapt serves every frame but sheds
// due adaptation steps while a stream is behind, and every completed
// window is accounted either as a step or a skip.
func TestSchedSkipAdaptShedsSteps(t *testing.T) {
	m := testModel(44)
	const streams, frames, every = 3, 12, 2
	fleet := SyntheticFleet(m.Cfg, streams, frames, 30, 19)
	rep := New(m, overloadConfig(stream.SkipAdapt)).Run(fleet)
	if rep.Frames != streams*frames {
		t.Fatalf("SkipAdapt served %d frames, want all %d", rep.Frames, streams*frames)
	}
	if rep.FramesDropped != 0 {
		t.Fatalf("SkipAdapt dropped %d frames", rep.FramesDropped)
	}
	if rep.AdaptsSkipped == 0 {
		t.Fatal("overloaded SkipAdapt skipped nothing")
	}
	for si, sr := range rep.Streams {
		if sr.AdaptSteps+sr.AdaptsSkipped != frames/every {
			t.Fatalf("stream %d: %d steps + %d skips != %d completed windows",
				si, sr.AdaptSteps, sr.AdaptsSkipped, frames/every)
		}
	}
}

// TestSchedPlanIsDeterministic: the virtual-clock plan is pure
// arithmetic over arrivals and prices, so two plans of the same fleet
// must agree dispatch for dispatch.
func TestSchedPlanIsDeterministic(t *testing.T) {
	m := testModel(45)
	fleet := SyntheticFleet(m.Cfg, 3, 10, 30, 23)
	e := New(m, overloadConfig(stream.DropFrames))
	a, b := e.plan(fleet), e.plan(fleet)
	if len(a.batches) != len(b.batches) {
		t.Fatalf("plan sizes differ: %d vs %d", len(a.batches), len(b.batches))
	}
	for i := range a.batches {
		ab, bb := a.batches[i], b.batches[i]
		if ab.dispatchMs != bb.dispatchMs || ab.worker != bb.worker || len(ab.frames) != len(bb.frames) {
			t.Fatalf("batch %d differs: %+v vs %+v", i, ab, bb)
		}
	}
	if a.makespanMs != b.makespanMs {
		t.Fatalf("makespans differ: %f vs %f", a.makespanMs, b.makespanMs)
	}
}

// TestSchedMixedFPSFleet: a mixed-rate fleet interleaves arrivals; the
// scheduler must serve every frame of both rates and report sane
// virtual time.
func TestSchedMixedFPSFleet(t *testing.T) {
	m := testModel(46)
	fleet := SyntheticFleetRates(m.Cfg, 4, 6, []float64{30, 10}, 29)
	if fleet[0].FPS != 30 || fleet[1].FPS != 10 || fleet[2].FPS != 30 || fleet[3].FPS != 10 {
		t.Fatalf("rates not cycled: %v %v %v %v", fleet[0].FPS, fleet[1].FPS, fleet[2].FPS, fleet[3].FPS)
	}
	e := New(m, Config{
		Workers:    2,
		MaxBatch:   4,
		AdaptEvery: 3,
		Adapt:      adapt.DefaultConfig(),
		Mode:       orin.Mode60W,
	})
	rep := e.Run(fleet)
	if rep.Frames != 24 {
		t.Fatalf("served %d frames, want 24", rep.Frames)
	}
	// The 10 FPS streams span 500 ms of virtual time; the makespan must
	// cover their last arrival.
	if rep.VirtualSeconds < 0.5 {
		t.Fatalf("virtual makespan %.3f s shorter than the slow streams' arrival span", rep.VirtualSeconds)
	}
}

// TestSchedFullyShedStreamReports is the empty-latency-slice
// regression: a stream whose every frame goes stale behind a hogged
// worker serves nothing under DropFrames, so its report aggregates
// zero latency samples. The report path must guard the percentile
// calls on the samples themselves — metrics.Percentile panics on empty
// input — and still account every shed frame.
func TestSchedFullyShedStreamReports(t *testing.T) {
	m := testModel(47)
	// Stream 0 floods the single worker (40 frames at 200 FPS); stream 1
	// joins mid-flood at 100 FPS, so its Backlog=1 shed cap is one 10 ms
	// period while the queue ahead of it is already tens of frames deep:
	// every one of its frames is stale by dispatch time.
	fleet := SyntheticFleetSchedules(m.Cfg, []StreamSchedule{
		{Phases: []stream.RatePhase{{Frames: 40, FPS: 200}}},
		{Start: 50 * time.Millisecond, Phases: []stream.RatePhase{{Frames: 6, FPS: 100}}},
	}, 31)
	rep := New(m, overloadConfig(stream.DropFrames)).Run(fleet)
	shed := rep.Streams[1]
	if shed.Frames != 0 || shed.FramesDropped != 6 {
		t.Fatalf("shed stream served %d, dropped %d — want 0 served, all 6 dropped",
			shed.Frames, shed.FramesDropped)
	}
	if shed.P50LatencyMs != 0 || shed.MaxLatencyMs != 0 || shed.MaxQueueMs != 0 || shed.MissRate != 0 {
		t.Fatalf("shed stream reports phantom latency: %+v", shed)
	}
	if rep.Frames == 0 || rep.Frames+rep.FramesDropped != 46 {
		t.Fatalf("served %d + dropped %d != 46 produced", rep.Frames, rep.FramesDropped)
	}
	if rep.P50LatencyMs <= 0 {
		t.Fatal("fleet percentiles lost the served stream's samples")
	}
}
