package serve

import (
	"math"
	"testing"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/ufld"
)

// fixedCtl is a test controller that pins one set of controls, used to
// exercise the epoch loop without importing internal/govern (which
// imports serve).
type fixedCtl struct{ c Controls }

func (f fixedCtl) Name() string              { return "fixed" }
func (f fixedCtl) Start(cfg Config) Controls { return f.c }
func (f fixedCtl) Decide(_ EpochStats, cur Controls, _ func(Controls) EpochStats) Controls {
	return cur
}

// TestEnergyHandChecked pins Report energy against Σ(mode.Watts × busy
// interval) on a schedule simple enough to check by hand: one 2 FPS
// stream, MaxBatch 1, one worker, AdaptEvery 3 over 6 frames. Every
// frame dispatches alone the instant it arrives (500 ms period ≫ frame
// cost), so the busy intervals are exactly 6 single-frame forwards
// plus the 2 completed adaptation steps, and the board is on from
// virtual zero to the makespan.
func TestEnergyHandChecked(t *testing.T) {
	m := testModel(61)
	fleet := SyntheticFleet(m.Cfg, 1, 6, 2, 19)
	mode := orin.Mode30W
	e := New(m, Config{
		Workers:    1,
		MaxBatch:   1,
		AdaptEvery: 3,
		Adapt:      adapt.DefaultConfig(),
		Mode:       mode,
	})
	rep := e.Run(fleet)

	cost := ufld.DescribeModel(ufld.FullScale(resnet.R18, m.Cfg.Lanes))
	batchMs := orin.EstimateInferenceBatch("R-18", cost, mode, 1).BatchMs
	stepMs := orin.EstimateAdaptStep(cost, mode)
	wantBusyMs := 6*batchMs + 2*stepMs
	wantBusyMJ := float64(mode.Watts) * wantBusyMs
	if diff := math.Abs(rep.BusyEnergyMJ - wantBusyMJ); diff > 1e-6 {
		t.Fatalf("busy energy %.6f mJ, hand-checked Σ(W×busy) = %.6f mJ", rep.BusyEnergyMJ, wantBusyMJ)
	}
	// The last frame arrives at 2500 ms and its dispatch carries the
	// forward plus the second adaptation step.
	wantMakespanMs := 2500 + batchMs + stepMs
	if diff := math.Abs(rep.VirtualSeconds*1e3 - wantMakespanMs); diff > 1e-6 {
		t.Fatalf("makespan %.3f ms, want %.3f ms", rep.VirtualSeconds*1e3, wantMakespanMs)
	}
	wantIdleMJ := mode.IdleWatts * wantMakespanMs
	if diff := math.Abs(rep.IdleEnergyMJ - wantIdleMJ); diff > 1e-6 {
		t.Fatalf("idle energy %.6f mJ, want IdleWatts × makespan = %.6f mJ", rep.IdleEnergyMJ, wantIdleMJ)
	}
	if diff := math.Abs(rep.EnergyMJ - (wantBusyMJ + wantIdleMJ)); diff > 1e-6 {
		t.Fatalf("total energy %.6f mJ, want busy+idle = %.6f mJ", rep.EnergyMJ, wantBusyMJ+wantIdleMJ)
	}
	if want := rep.EnergyMJ / 1e3 / 6; math.Abs(rep.JPerFrame-want) > 1e-9 {
		t.Fatalf("J/frame %.6f, want %.6f", rep.JPerFrame, want)
	}
}

// TestEnergyFrameAttributionSums: the per-frame energy attributions
// must partition the dynamic energy exactly — Σ over streams of
// StreamReport.EnergyMJ equals Report.BusyEnergyMJ even under
// overload, shedding and partial adaptation windows.
func TestEnergyFrameAttributionSums(t *testing.T) {
	m := testModel(62)
	fleet := BurstyFleet(m.Cfg, 2, 2, 4, 12, 2, 30, 23)
	for _, policy := range []stream.OverloadPolicy{stream.DropNone, stream.SkipAdapt, stream.DropFrames} {
		e := New(m, Config{
			Workers:    1,
			MaxBatch:   4,
			AdaptEvery: 3,
			Adapt:      adapt.DefaultConfig(),
			Mode:       orin.Mode15W,
			Policy:     policy,
		})
		rep := e.Run(fleet)
		sum := 0.0
		for _, sr := range rep.Streams {
			sum += sr.EnergyMJ
		}
		if rel := math.Abs(sum-rep.BusyEnergyMJ) / rep.BusyEnergyMJ; rel > 1e-9 {
			t.Fatalf("%v: Σ stream energy %.6f mJ != busy energy %.6f mJ (rel %.2e)",
				policy, sum, rep.BusyEnergyMJ, rel)
		}
		if rep.EnergyMJ <= rep.BusyEnergyMJ {
			t.Fatalf("%v: total energy %.3f must exceed busy energy %.3f by the static draw",
				policy, rep.EnergyMJ, rep.BusyEnergyMJ)
		}
	}
}

// TestRunGovernedPartitionMatchesOneShot: with controls that never
// change, any epoch partition must reproduce the one-shot schedule's
// virtual accounting exactly — queue state, worker busy intervals and
// open adaptation windows carry across boundaries, and the static
// energy integrates to the same makespan.
func TestRunGovernedPartitionMatchesOneShot(t *testing.T) {
	m := testModel(63)
	fleet := BurstyFleet(m.Cfg, 2, 2, 4, 12, 2, 30, 29)
	cfg := Config{
		Workers:    1,
		MaxBatch:   4,
		Window:     2 * time.Millisecond,
		AdaptEvery: 3,
		Adapt:      adapt.DefaultConfig(),
		Mode:       orin.Mode30W,
		Policy:     stream.DropFrames,
	}
	one := New(m, cfg).Run(fleet)
	for _, epochMs := range []float64{100, 250, 1000} {
		part := New(m, cfg).RunGoverned(fleet, epochMs, fixedCtl{c: Controls{
			Mode: cfg.Mode, Policy: cfg.Policy, AdaptEvery: cfg.AdaptEvery,
		}})
		if part.Frames != one.Frames || part.Batches != one.Batches ||
			part.FramesDropped != one.FramesDropped || part.AdaptsSkipped != one.AdaptsSkipped {
			t.Fatalf("epoch %v ms: counts diverge: %d/%d/%d/%d vs %d/%d/%d/%d", epochMs,
				part.Frames, part.Batches, part.FramesDropped, part.AdaptsSkipped,
				one.Frames, one.Batches, one.FramesDropped, one.AdaptsSkipped)
		}
		for name, pair := range map[string][2]float64{
			"virtual": {part.VirtualSeconds, one.VirtualSeconds},
			"busy":    {part.BusyEnergyMJ, one.BusyEnergyMJ},
			"idle":    {part.IdleEnergyMJ, one.IdleEnergyMJ},
			"total":   {part.EnergyMJ, one.EnergyMJ},
			"p99":     {part.P99LatencyMs, one.P99LatencyMs},
			"miss":    {part.MissRate, one.MissRate},
			"queue":   {part.MeanQueueMs, one.MeanQueueMs},
		} {
			if diff := math.Abs(pair[0] - pair[1]); diff > 1e-6 {
				t.Fatalf("epoch %v ms: %s diverges: %.9f vs %.9f", epochMs, name, pair[0], pair[1])
			}
		}
		if len(part.Epochs) < 2 {
			t.Fatalf("epoch %v ms: expected a multi-epoch trace, got %d", epochMs, len(part.Epochs))
		}
	}
	if len(one.Epochs) != 1 {
		t.Fatalf("one-shot run must report a single epoch, got %d", len(one.Epochs))
	}
}

// TestEpochTelemetryConsistency: the epoch trace must tile the run —
// served/dropped/energy totals across epochs match the report, every
// arrival is counted exactly once, and the backlog telemetry never
// goes negative.
func TestEpochTelemetryConsistency(t *testing.T) {
	m := testModel(64)
	fleet := BurstyFleet(m.Cfg, 2, 2, 4, 12, 2, 30, 31)
	total := 0
	for _, src := range fleet {
		total += len(src.Frames)
	}
	rep := New(m, Config{
		Workers:    1,
		MaxBatch:   4,
		AdaptEvery: 3,
		Adapt:      adapt.DefaultConfig(),
		Mode:       orin.Mode30W,
	}).RunGoverned(fleet, 200, fixedCtl{c: Controls{Mode: orin.Mode30W, AdaptEvery: 3}})
	served, arrived, dropped, busyMJ, idleMJ := 0, 0, 0, 0.0, 0.0
	steps := 0
	for i, es := range rep.Epochs {
		if es.Epoch != i {
			t.Fatalf("epoch %d numbered %d", i, es.Epoch)
		}
		if es.QueueDepth < 0 {
			t.Fatalf("epoch %d backlog %d negative", i, es.QueueDepth)
		}
		if es.DeadlineHitRate < 0 || es.DeadlineHitRate > 1 {
			t.Fatalf("epoch %d hit rate %f", i, es.DeadlineHitRate)
		}
		served += es.Served
		arrived += es.Arrived
		dropped += es.FramesDropped
		steps += es.AdaptSteps
		busyMJ += es.BusyEnergyMJ
		idleMJ += es.IdleEnergyMJ
	}
	if served != rep.Frames {
		t.Fatalf("Σ epoch served %d != report frames %d", served, rep.Frames)
	}
	if arrived != total {
		t.Fatalf("Σ epoch arrived %d != fleet frames %d", arrived, total)
	}
	if dropped != rep.FramesDropped {
		t.Fatalf("Σ epoch dropped %d != report %d", dropped, rep.FramesDropped)
	}
	wantSteps := 0
	for _, sr := range rep.Streams {
		wantSteps += sr.AdaptSteps
	}
	if steps != wantSteps {
		t.Fatalf("Σ epoch adapt steps %d != report %d", steps, wantSteps)
	}
	if diff := math.Abs(busyMJ - rep.BusyEnergyMJ); diff > 1e-6 {
		t.Fatalf("Σ epoch busy energy %.6f != report %.6f", busyMJ, rep.BusyEnergyMJ)
	}
	if diff := math.Abs(idleMJ - rep.IdleEnergyMJ); diff > 1e-6 {
		t.Fatalf("Σ epoch idle energy %.6f != report %.6f", idleMJ, rep.IdleEnergyMJ)
	}
}

// TestNaiveEnergyAccounting: the unbatched baseline (one worker,
// MaxBatch 1, a step after every frame) prices every frame at the full
// single-frame draw with the board on for the whole makespan.
func TestNaiveEnergyAccounting(t *testing.T) {
	m := testModel(65)
	fleet := SyntheticFleet(m.Cfg, 2, 4, 30, 37)
	mode := orin.Mode30W
	rep := New(m, Config{Workers: 1, MaxBatch: 1, AdaptEvery: 1, Adapt: adapt.DefaultConfig(), Mode: mode}).Run(fleet)
	cost := ufld.DescribeModel(ufld.FullScale(resnet.R18, m.Cfg.Lanes))
	frameMs := orin.EstimateFrame("R-18", cost, mode, 1).TotalMs
	wantBusy := float64(mode.Watts) * frameMs * 8
	if diff := math.Abs(rep.BusyEnergyMJ - wantBusy); diff > 1e-6 {
		t.Fatalf("naive busy energy %.6f, want %.6f", rep.BusyEnergyMJ, wantBusy)
	}
	wantIdle := mode.IdleWatts * rep.VirtualSeconds * 1e3
	if diff := math.Abs(rep.IdleEnergyMJ - wantIdle); diff > 1e-6 {
		t.Fatalf("naive idle energy %.6f, want %.6f", rep.IdleEnergyMJ, wantIdle)
	}
	if math.Abs(rep.EnergyMJ-(wantBusy+wantIdle)) > 1e-6 || rep.JPerFrame <= 0 {
		t.Fatalf("naive totals inconsistent: %+v", rep)
	}
}
