package orin

import (
	"fmt"
	"io"

	"ldbnadapt/internal/resnet"
)

// Estimate is the predicted per-frame cost of LD-BN-ADAPT deployment:
// inference on the incoming frame followed by one adaptation step.
type Estimate struct {
	// ModelName labels the network ("R-18", "R-34").
	ModelName string
	// Mode is the power mode evaluated.
	Mode PowerMode
	// BatchSize is the adaptation batch size.
	BatchSize int
	// InferenceMs is the forward-pass latency (one frame).
	InferenceMs float64
	// AdaptMs is the adaptation latency amortized per frame: the
	// adapt-mode forward (with statistics recomputation), the backward
	// pass and the γ/β update, divided by the batch size (adaptation
	// runs once per batch).
	AdaptMs float64
	// TotalMs = OverheadMs + InferenceMs + AdaptMs.
	TotalMs float64
	// EnergyMJ is the per-frame energy in millijoules (power × time).
	EnergyMJ float64
}

// FPS returns the achievable frame rate.
func (e Estimate) FPS() float64 { return 1000.0 / e.TotalMs }

// Meets reports whether the estimate fits a latency deadline (ms).
func (e Estimate) Meets(deadlineMs float64) bool { return e.TotalMs <= deadlineMs }

// phaseMs prices a float phase over every layer: the roofline at the
// mode's float rate with FLOPs scaled by flopScale (backward ≈ 2×
// forward for conv/linear layers) and all traffic by byteScale.
func phaseMs(cost resnet.ModelCost, mode PowerMode, flopScale, byteScale float64) float64 {
	return rooflineMs(cost, mode, mode.EffGFLOPS, flopScale, byteScale, byteScale, 1)
}

// rooflineMs is the per-layer roofline every price here sums, in ms:
// each layer takes max(compute, memory), compute being flopScale·FLOPs
// at rate (GFLOP/s or GOP/s) and memory (actScale·2·ActBytes +
// weightScale·WeightBytes)/div bytes at the mode's bandwidth. The byte
// scales and div are small integers or powers of two applied to integer
// byte counts, so the byte sums are exact however they are grouped.
func rooflineMs(cost resnet.ModelCost, mode PowerMode, rate, flopScale, actScale, weightScale, div float64) float64 {
	totalUs := 0.0
	for _, l := range cost.Layers {
		computeUs := flopScale * float64(l.FLOPs) / rate / 1e3
		bytes := (actScale*float64(2*l.ActBytes) + weightScale*float64(l.WeightBytes)) / div
		memUs := bytes / mode.MemBWGBs / 1e3
		totalUs += max(memUs, computeUs)
	}
	return totalUs / 1e3
}

// EstimateFrame prices one deployed LD-BN-ADAPT frame for the given
// model cost (use ufld.DescribeModel on a FullScale config) under a
// power mode. Batch size bs amortizes the adaptation phase: with bs=1
// every frame adapts; with bs=4 one adaptation step serves 4 frames.
func EstimateFrame(name string, cost resnet.ModelCost, mode PowerMode, bs int) Estimate {
	if bs < 1 {
		panic(fmt.Sprintf("orin: batch size %d", bs))
	}
	inference := phaseMs(cost, mode, 1, 1)
	adaptPerBatch := EstimateAdaptStep(cost, mode)
	e := Estimate{
		ModelName:   name,
		Mode:        mode,
		BatchSize:   bs,
		InferenceMs: inference,
		AdaptMs:     adaptPerBatch / float64(bs),
	}
	e.TotalMs = mode.OverheadMs + e.InferenceMs + e.AdaptMs
	e.EnergyMJ = float64(mode.Watts) * e.TotalMs
	return e
}

// EstimateAdaptStep prices one whole LD-BN-ADAPT step: one adapt-mode
// forward (forward + BN statistics reduction ≈ 1.15× forward FLOPs on
// BN layers — folded into the 1.1 factor), one backward (≈ 2× forward),
// and the γ/β SGD update (negligible FLOPs, priced as bytes). On the
// Orin GPU the step cost is independent of the (small) adaptation batch
// size, so serving engines charge this price once per dispatched step
// and amortize it over the frames the step serves — EstimateFrame's
// per-frame AdaptMs is this value divided by the batch size.
func EstimateAdaptStep(cost resnet.ModelCost, mode PowerMode) float64 {
	return phaseMs(cost, mode, 1.1, 1) + phaseMs(cost, mode, 2, 2)
}

// EstimateInferenceOnly prices a frame without any adaptation (the
// NoAdapt deployment).
func EstimateInferenceOnly(name string, cost resnet.ModelCost, mode PowerMode) Estimate {
	e := Estimate{ModelName: name, Mode: mode, BatchSize: 0,
		InferenceMs: phaseMs(cost, mode, 1, 1)}
	e.TotalMs = mode.OverheadMs + e.InferenceMs
	e.EnergyMJ = float64(mode.Watts) * e.TotalMs
	return e
}

// WriteLatencyTable prints the Fig. 3-style table: per power mode and
// model, the inference+adaptation latency and which deadlines it
// meets.
func WriteLatencyTable(w io.Writer, estimates []Estimate) {
	fmt.Fprintf(w, "%-8s %-12s %6s %8s %8s %8s %8s %6s %6s\n",
		"model", "mode", "bs", "infer", "adapt", "total", "fps", "30FPS", "18FPS")
	for _, e := range estimates {
		mark := func(ok bool) string {
			if ok {
				return "meet"
			}
			return "miss"
		}
		fmt.Fprintf(w, "%-8s %-12s %6d %7.1fms %7.1fms %7.1fms %7.1f %6s %6s\n",
			e.ModelName, e.Mode.Name, e.BatchSize, e.InferenceMs, e.AdaptMs, e.TotalMs,
			e.FPS(), mark(e.Meets(Deadline30FPS)), mark(e.Meets(Deadline18FPS)))
	}
}
