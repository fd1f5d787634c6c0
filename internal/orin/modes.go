// Package orin models the NVIDIA Jetson AGX Orin that the paper
// measures on: a roofline latency model over the true per-layer
// operation counts of the UFLD models, parameterized by the board's
// power modes. The paper's Fig. 3 (latency per power mode vs the
// 30 FPS / 18 FPS deadlines) and its §II claim that one SOTA-baseline
// epoch exceeds an hour on device are both regenerated from this
// model.
//
// Calibration: the effective-throughput constants below are NOT peak
// datasheet numbers; they are sustained FP32 conv-workload rates chosen
// so that the full-scale ResNet-18 UFLD at the 60 W mode lands where
// Fig. 3 places it (inference+adaptation just under the 33.3 ms
// deadline). All tests assert ordering properties only, never absolute
// milliseconds, so recalibrating cannot silently break the suite.
package orin

import "fmt"

// PowerMode is one nvpmodel operating point of the Jetson AGX Orin.
type PowerMode struct {
	// Name is the mode label used in reports ("MAXN (60W)", ...).
	Name string
	// Watts is the mode's power budget, drawn while the accelerator is
	// busy with dispatched work.
	Watts int
	// IdleWatts is the static rail draw of the board parked at this
	// nvpmodel point with no work in flight: higher modes hold higher
	// GPU/EMC clocks and voltages even when idle. This is what a
	// power governor saves by descending the ladder during load lulls —
	// busy energy alone favors the fastest mode (race-to-idle), static
	// draw does not.
	IdleWatts float64
	// EffGFLOPS is the sustained effective FP32 throughput (GFLOP/s)
	// for convolutional workloads under this mode's GPU clocks.
	EffGFLOPS float64
	// Int8GOPS is the sustained effective INT8 throughput (GOP/s) for
	// the same workloads when the conv/FC products run through the
	// symmetric int8 path. Ampere-class tensor cores sustain roughly
	// 3–3.5× their FP32 conv rate on int8 GEMMs once dequantize and
	// per-channel scaling are folded in; like EffGFLOPS these are
	// calibrated sustained rates, not datasheet peaks.
	Int8GOPS float64
	// MemBWGBs is the effective DRAM bandwidth (GB/s) under this
	// mode's EMC clocks.
	MemBWGBs float64
	// OverheadMs is the fixed per-frame cost: camera capture copy,
	// 1280×720 → 288×800 resize, host↔device traffic, kernel-launch
	// latency.
	OverheadMs float64
}

// The four power modes the paper sweeps in Fig. 3.
var (
	// Mode15W is the lowest-power operating point.
	Mode15W = PowerMode{Name: "15W", Watts: 15, IdleWatts: 5, EffGFLOPS: 500, Int8GOPS: 1600, MemBWGBs: 50, OverheadMs: 6.0}
	// Mode30W is the mid operating point.
	Mode30W = PowerMode{Name: "30W", Watts: 30, IdleWatts: 9, EffGFLOPS: 1100, Int8GOPS: 3600, MemBWGBs: 110, OverheadMs: 3.5}
	// Mode50W is the high operating point.
	Mode50W = PowerMode{Name: "50W", Watts: 50, IdleWatts: 14, EffGFLOPS: 1800, Int8GOPS: 6000, MemBWGBs: 190, OverheadMs: 2.5}
	// Mode60W is MAXN (the paper's "60W" mode).
	Mode60W = PowerMode{Name: "MAXN (60W)", Watts: 60, IdleWatts: 18, EffGFLOPS: 3000, Int8GOPS: 10000, MemBWGBs: 250, OverheadMs: 2.0}
)

// Modes lists the power modes in ascending power order.
var Modes = []PowerMode{Mode15W, Mode30W, Mode50W, Mode60W}

// ModeByWatts returns the mode with the given power budget.
func ModeByWatts(w int) (PowerMode, error) {
	valid := make([]int, len(Modes))
	for i, m := range Modes {
		if m.Watts == w {
			return m, nil
		}
		valid[i] = m.Watts
	}
	return PowerMode{}, fmt.Errorf("orin: no %d W power mode (have %v)", w, valid)
}

// Deadlines from the paper's §IV.
const (
	// Deadline30FPS is the strict real-time constraint: 33.3 ms.
	Deadline30FPS = 1000.0 / 30.0
	// Deadline18FPS is the relaxed constraint of an Audi-A8-class
	// level-3 system: 55.5 ms.
	Deadline18FPS = 1000.0 / 18.0
)
