package stream

import (
	"sync"
	"testing"
	"time"

	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/ufld"
)

// fixture is the benchmark the source tests replay; no test here needs
// a model.
type fixture struct {
	bench *carlane.Benchmark
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		fix.bench = carlane.Build(carlane.MoLane, resnet.R18, ufld.Tiny,
			carlane.Sizes{SourceTrain: 40, SourceVal: 12, TargetTrain: 24, TargetVal: 16}, 13)
	})
	return &fix
}

func TestSourceTimestamps(t *testing.T) {
	f := getFixture(t)
	src := NewSource(f.bench.TargetTrain, 30)
	if len(src.Frames) != f.bench.TargetTrain.Len() {
		t.Fatal("frame count wrong")
	}
	period := src.Period()
	if period != time.Second/30 {
		t.Fatalf("period %v", period)
	}
	for i, fr := range src.Frames {
		if fr.Index != i {
			t.Fatal("indices must be ordered")
		}
		if fr.Arrival != time.Duration(i)*period {
			t.Fatalf("frame %d arrival %v", i, fr.Arrival)
		}
	}
}

// TestSourceScheduleArrivals pins the phased arrival arithmetic: a
// lull→burst→lull schedule with a join offset must stamp each frame at
// the exact integral of its phase periods and report the burst rate as
// the nominal FPS.
func TestSourceScheduleArrivals(t *testing.T) {
	f := getFixture(t)
	start := 500 * time.Millisecond
	src := NewSourceSchedule(f.bench.TargetTrain, start, []RatePhase{
		{Frames: 3, FPS: 10}, // lull: 100 ms period
		{Frames: 4, FPS: 40}, // burst: 25 ms period
		{Frames: 2, FPS: 10},
	})
	if src.FPS != 40 {
		t.Fatalf("nominal FPS %v, want the fastest phase (40)", src.FPS)
	}
	if len(src.Frames) != 9 {
		t.Fatalf("frame count %d, want 9", len(src.Frames))
	}
	want := []time.Duration{
		start,
		start + 100*time.Millisecond,
		start + 200*time.Millisecond,
		start + 300*time.Millisecond, // burst starts one lull period after its opener
		start + 325*time.Millisecond,
		start + 350*time.Millisecond,
		start + 375*time.Millisecond,
		start + 400*time.Millisecond, // back to the lull rate
		start + 500*time.Millisecond,
	}
	for i, fr := range src.Frames {
		if fr.Index != i {
			t.Fatalf("frame %d index %d", i, fr.Index)
		}
		if fr.Arrival != want[i] {
			t.Fatalf("frame %d arrives at %v, want %v", i, fr.Arrival, want[i])
		}
	}
}

// TestSourceScheduleTruncatesToDataset: a schedule longer than the
// dataset ends early — the natural model of a stream that leaves.
func TestSourceScheduleTruncatesToDataset(t *testing.T) {
	f := getFixture(t)
	n := f.bench.TargetTrain.Len()
	src := NewSourceSchedule(f.bench.TargetTrain, 0, []RatePhase{{Frames: n + 50, FPS: 30}})
	if len(src.Frames) != n {
		t.Fatalf("schedule served %d frames, want dataset size %d", len(src.Frames), n)
	}
}

// TestSourceScheduleRejectsBadPhases: non-positive rates and empty
// schedules must panic like NewSource's fps validation.
func TestSourceScheduleRejectsBadPhases(t *testing.T) {
	f := getFixture(t)
	for name, phases := range map[string][]RatePhase{
		"zero-fps":   {{Frames: 4, FPS: 0}},
		"neg-frames": {{Frames: -1, FPS: 30}},
		"empty":      {},
		"no-frames":  {{Frames: 0, FPS: 30}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: schedule accepted", name)
				}
			}()
			NewSourceSchedule(f.bench.TargetTrain, 0, phases)
		}()
	}
}

func TestNewSourceRejectsBadFPS(t *testing.T) {
	f := getFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("fps=0 accepted")
		}
	}()
	NewSource(f.bench.TargetTrain, 0)
}

func TestOverloadPolicyNames(t *testing.T) {
	if DropNone.String() != "drop-none" || SkipAdapt.String() != "skip-adapt" || DropFrames.String() != "drop-frames" {
		t.Fatal("policy names wrong")
	}
	if OverloadPolicy(9).String() == "" {
		t.Fatal("unknown policy must render")
	}
}

// TestParsePolicy round-trips every policy name and rejects junk.
func TestParsePolicy(t *testing.T) {
	for _, p := range []OverloadPolicy{DropNone, SkipAdapt, DropFrames} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("junk policy accepted")
	}
}
