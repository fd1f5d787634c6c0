package orin

import (
	"fmt"

	"ldbnadapt/internal/resnet"
)

// BatchEstimate prices one coalesced inference batch on the Orin: the
// multi-stream serving engine runs frames from several cameras through
// a single batched forward pass, and the deadline accounting must
// reflect how that batch prices out on device.
type BatchEstimate struct {
	// ModelName labels the network ("R-18", "R-34").
	ModelName string
	// Mode is the power mode evaluated.
	Mode PowerMode
	// BatchSize is the number of coalesced frames.
	BatchSize int
	// BatchMs is the whole-batch latency (one fixed overhead, one
	// batched forward).
	BatchMs float64
	// PerFrameMs = BatchMs / BatchSize — the amortized latency each
	// frame in the batch pays.
	PerFrameMs float64
	// EnergyMJ is the per-frame energy in millijoules.
	EnergyMJ float64
}

// EstimateInferenceBatch prices a batched forward pass of bs frames
// under a power mode with the same per-layer roofline used by
// EstimateFrame, extended to batched execution: compute and activation
// traffic scale with the batch size, while the layer weights are read
// once per batch and the fixed per-invocation overhead (capture copy,
// resize, host↔device traffic, kernel launches) is paid once. This is
// the mechanism that makes batched serving cheaper per frame — weights
// and overhead amortize — and it degenerates exactly to
// EstimateInferenceOnly at bs = 1.
func EstimateInferenceBatch(name string, cost resnet.ModelCost, mode PowerMode, bs int) BatchEstimate {
	return batchEstimate(name, mode, bs, rooflineMs(cost, mode, mode.EffGFLOPS, float64(bs), float64(bs), 1, 1))
}

// EstimateInferenceBatchInt8 prices the same batched forward with the
// conv/FC products in symmetric int8 (nn.InferInt8): operations run at
// the mode's Int8GOPS rate and both activation and weight traffic drop
// to a quarter (1 byte vs 4 per element; the per-channel scale vectors
// are noise at this granularity). BatchNorm, ReLU and pooling remain
// float32 but are already memory-bound inside the per-layer roofline,
// so they inherit the reduced activation traffic. The fixed
// per-invocation overhead is unchanged — capture, resize and transfer
// do not quantize. This is the price the governor compares against the
// float path when deciding whether to climb to the int8 rung.
func EstimateInferenceBatchInt8(name string, cost resnet.ModelCost, mode PowerMode, bs int) BatchEstimate {
	return batchEstimate(name, mode, bs, rooflineMs(cost, mode, mode.Int8GOPS, float64(bs), float64(bs), 1, 4))
}

// batchEstimate completes a batch's price from its roofline, ms: one
// fixed overhead for the whole batch, shared by its bs frames.
func batchEstimate(name string, mode PowerMode, bs int, ms float64) BatchEstimate {
	if bs < 1 {
		panic(fmt.Sprintf("orin: batch size %d", bs))
	}
	e := BatchEstimate{
		ModelName: name,
		Mode:      mode,
		BatchSize: bs,
		BatchMs:   mode.OverheadMs + ms,
	}
	e.PerFrameMs = e.BatchMs / float64(bs)
	e.EnergyMJ = float64(mode.Watts) * e.PerFrameMs
	return e
}
