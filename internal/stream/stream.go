// Package stream holds the inputs and vocabulary of the paper's
// deployment setting: camera sources that replay target-domain frames
// at fixed or phased rates (the paper's cameras run at 30 FPS), the
// per-frame scoring stage, and the overload policies a serving loop may
// apply when the work does not fit the camera period. The serving loop
// itself — inference, LD-BN-ADAPT steps and Orin-priced latency — is
// internal/serve's engine.
package stream

import (
	"fmt"
	"time"

	"ldbnadapt/internal/ufld"
)

// Frame is one camera capture.
type Frame struct {
	// Index is the frame number.
	Index int
	// Arrival is the camera timestamp.
	Arrival time.Duration
	// Sample is the image (labels used for scoring only).
	Sample ufld.Sample
}

// Source replays a dataset as a fixed-rate camera stream.
type Source struct {
	// FPS is the camera rate (the paper's cameras run at 30 FPS).
	FPS float64
	// Frames holds the stream in arrival order.
	Frames []Frame
}

// NewSource builds a source from a dataset at the given rate.
func NewSource(ds *ufld.Dataset, fps float64) *Source {
	if fps <= 0 {
		panic(fmt.Sprintf("stream: fps %v", fps))
	}
	s := &Source{FPS: fps, Frames: make([]Frame, ds.Len())}
	period := time.Duration(float64(time.Second) / fps)
	for i, smp := range ds.Samples {
		s.Frames[i] = Frame{Index: i, Arrival: time.Duration(i) * period, Sample: smp}
	}
	return s
}

// Period returns the frame interval at the source's nominal rate. For
// schedule-built sources (NewSourceSchedule) the nominal rate is the
// fastest phase, so backlog caps measured in periods stay meaningful
// during bursts.
func (s *Source) Period() time.Duration {
	return time.Duration(float64(time.Second) / s.FPS)
}

// RatePhase is one segment of a time-varying camera schedule: the next
// Frames frames arrive at FPS. Sequencing phases expresses the
// deployment scenarios a fixed-rate source cannot: load bursts (lull →
// burst → lull), diurnal ramps (staircase of rising then falling
// rates), and finite sessions (a short schedule is a stream that
// leaves early).
type RatePhase struct {
	// Frames is the number of frames the phase emits.
	Frames int
	// FPS is the camera rate during the phase.
	FPS float64
}

// NewSourceSchedule replays a dataset through consecutive rate phases,
// with the first frame arriving at start (a late join). The stream
// carries min(ds.Len(), Σ phase frames) frames; the nominal Source.FPS
// is the fastest phase rate. Arrival stamps are exact integrals of the
// phase periods, so schedules are deterministic inputs to the
// event-time scheduler and the governor's telemetry.
func NewSourceSchedule(ds *ufld.Dataset, start time.Duration, phases []RatePhase) *Source {
	maxFPS := 0.0
	total := 0
	for _, p := range phases {
		if p.FPS <= 0 {
			panic(fmt.Sprintf("stream: phase fps %v", p.FPS))
		}
		if p.Frames < 0 {
			panic(fmt.Sprintf("stream: phase frames %d", p.Frames))
		}
		total += p.Frames
		if p.FPS > maxFPS {
			maxFPS = p.FPS
		}
	}
	if total == 0 || maxFPS == 0 {
		panic("stream: empty schedule")
	}
	if total > ds.Len() {
		total = ds.Len()
	}
	s := &Source{FPS: maxFPS, Frames: make([]Frame, 0, total)}
	t := start
	for _, p := range phases {
		period := time.Duration(float64(time.Second) / p.FPS)
		for k := 0; k < p.Frames; k++ {
			i := len(s.Frames)
			if i == total {
				return s
			}
			s.Frames = append(s.Frames, Frame{Index: i, Arrival: t, Sample: ds.Samples[i]})
			t += period
		}
	}
	return s
}

// ScoreSample is the serving engine's scoring stage: it counts the
// labeled ground-truth points of s and computes the TuSimple accuracy
// of pred against them.
func ScoreSample(cfg ufld.Config, pred ufld.Prediction, s ufld.Sample) (acc float64, points int) {
	return ufld.Accuracy(cfg, []ufld.Prediction{pred}, []ufld.Sample{s}, []int{0}), s.Points()
}

// OverloadPolicy selects what happens when the per-frame work does not
// fit the camera period: an overloaded deployment must either skip the
// adaptation phase or drop whole frames to catch up. A stream counts as
// behind once a frame has queued past the serving engine's backlog cap.
type OverloadPolicy int

const (
	// DropNone processes every frame regardless of overrun (queue waits
	// and latency misses accumulate).
	DropNone OverloadPolicy = iota
	// SkipAdapt keeps inference on every frame but skips due
	// adaptation steps while the stream is behind — the model still
	// drives, adaptation degrades gracefully.
	SkipAdapt
	// DropFrames discards frames that are already stale when the
	// pipeline gets to them (classic camera-queue behaviour).
	DropFrames
)

// String names the policy.
func (p OverloadPolicy) String() string {
	switch p {
	case DropNone:
		return "drop-none"
	case SkipAdapt:
		return "skip-adapt"
	case DropFrames:
		return "drop-frames"
	}
	return fmt.Sprintf("OverloadPolicy(%d)", int(p))
}

// ParsePolicy resolves a policy name as printed by String (used by the
// serving CLIs).
func ParsePolicy(s string) (OverloadPolicy, error) {
	for _, p := range []OverloadPolicy{DropNone, SkipAdapt, DropFrames} {
		if s == p.String() {
			return p, nil
		}
	}
	return DropNone, fmt.Errorf("stream: unknown overload policy %q (have drop-none/skip-adapt/drop-frames)", s)
}
