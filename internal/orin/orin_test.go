package orin

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/ufld"
)

func costFor(v resnet.Variant) resnet.ModelCost {
	return ufld.DescribeModel(ufld.FullScale(v, 4))
}

func TestModeByWatts(t *testing.T) {
	for _, w := range []int{15, 30, 50, 60} {
		m, err := ModeByWatts(w)
		if err != nil || m.Watts != w {
			t.Fatalf("ModeByWatts(%d): %v %v", w, m, err)
		}
	}
	if _, err := ModeByWatts(25); err == nil {
		t.Fatal("unknown wattage accepted")
	}
}

// TestModeByWattsUnknownListsValid: the unknown-watts error must name
// every valid wattage so a CLI user can correct the flag without
// reading source.
func TestModeByWattsUnknownListsValid(t *testing.T) {
	_, err := ModeByWatts(25)
	if err == nil {
		t.Fatal("unknown wattage accepted")
	}
	for _, m := range Modes {
		if want := fmt.Sprintf("%d", m.Watts); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list the valid %s W mode", err, want)
		}
	}
	if !strings.Contains(err.Error(), "25") {
		t.Fatalf("error %q does not echo the rejected wattage", err)
	}
}

func TestModesAreMonotonic(t *testing.T) {
	for i := 1; i < len(Modes); i++ {
		if Modes[i].Watts <= Modes[i-1].Watts {
			t.Fatal("modes must ascend in power")
		}
		if Modes[i].EffGFLOPS <= Modes[i-1].EffGFLOPS {
			t.Fatal("throughput must rise with power")
		}
		if Modes[i].MemBWGBs <= Modes[i-1].MemBWGBs {
			t.Fatal("bandwidth must rise with power")
		}
		if Modes[i].IdleWatts <= Modes[i-1].IdleWatts {
			t.Fatal("static rail draw must rise with power")
		}
	}
	for _, m := range Modes {
		if m.IdleWatts <= 0 || m.IdleWatts >= float64(m.Watts) {
			t.Fatalf("%s: idle draw %.1f W outside (0, %d)", m.Name, m.IdleWatts, m.Watts)
		}
	}
}

func TestLatencyDecreasesWithPower(t *testing.T) {
	cost := costFor(resnet.R18)
	prev := -1.0
	for i := len(Modes) - 1; i >= 0; i-- {
		e := EstimateFrame("R-18", cost, Modes[i], 1)
		if prev >= 0 && e.TotalMs <= prev {
			t.Fatalf("latency must increase as power drops: %v", Modes[i].Name)
		}
		prev = e.TotalMs
	}
}

func TestR34SlowerThanR18(t *testing.T) {
	c18, c34 := costFor(resnet.R18), costFor(resnet.R34)
	for _, m := range Modes {
		e18 := EstimateFrame("R-18", c18, m, 1)
		e34 := EstimateFrame("R-34", c34, m, 1)
		if e34.TotalMs <= e18.TotalMs {
			t.Fatalf("%s: R-34 (%.1f ms) must be slower than R-18 (%.1f ms)", m.Name, e34.TotalMs, e18.TotalMs)
		}
	}
}

func TestAdaptPhaseAddsLatency(t *testing.T) {
	cost := costFor(resnet.R18)
	for _, m := range Modes {
		with := EstimateFrame("R-18", cost, m, 1)
		without := EstimateInferenceOnly("R-18", cost, m)
		if with.TotalMs <= without.TotalMs {
			t.Fatalf("%s: adaptation must add latency", m.Name)
		}
		if with.AdaptMs <= 0 || without.TotalMs <= 0 {
			t.Fatal("phases must be positive")
		}
	}
}

func TestBatchSizeAmortizesAdaptation(t *testing.T) {
	cost := costFor(resnet.R18)
	e1 := EstimateFrame("R-18", cost, Mode60W, 1)
	e2 := EstimateFrame("R-18", cost, Mode60W, 2)
	e4 := EstimateFrame("R-18", cost, Mode60W, 4)
	if !(e1.AdaptMs > e2.AdaptMs && e2.AdaptMs > e4.AdaptMs) {
		t.Fatal("larger batches must amortize adaptation cost")
	}
	if e1.InferenceMs != e4.InferenceMs {
		t.Fatal("inference cost must not depend on adaptation batch")
	}
}

// TestFig3DeadlinePlacement pins the paper's headline hardware result:
// R-18 at 60 W meets 30 FPS; R-18 at 50 W and R-34 at 60 W meet only
// 18 FPS; R-34 at 50 W and everything at ≤30 W misses both.
func TestFig3DeadlinePlacement(t *testing.T) {
	c18, c34 := costFor(resnet.R18), costFor(resnet.R34)
	type row struct {
		cost     resnet.ModelCost
		mode     PowerMode
		meets30  bool
		meets18  bool
		whatisit string
	}
	rows := []row{
		{c18, Mode60W, true, true, "R-18@60W"},
		{c18, Mode50W, false, true, "R-18@50W"},
		{c34, Mode60W, false, true, "R-34@60W"},
		{c34, Mode50W, false, false, "R-34@50W"},
		{c18, Mode30W, false, false, "R-18@30W"},
		{c34, Mode30W, false, false, "R-34@30W"},
		{c18, Mode15W, false, false, "R-18@15W"},
		{c34, Mode15W, false, false, "R-34@15W"},
	}
	for _, r := range rows {
		e := EstimateFrame(r.whatisit, r.cost, r.mode, 1)
		if got := e.Meets(Deadline30FPS); got != r.meets30 {
			t.Errorf("%s: meets 30FPS = %v (%.1f ms), want %v", r.whatisit, got, e.TotalMs, r.meets30)
		}
		if got := e.Meets(Deadline18FPS); got != r.meets18 {
			t.Errorf("%s: meets 18FPS = %v (%.1f ms), want %v", r.whatisit, got, e.TotalMs, r.meets18)
		}
	}
}

func TestEnergyScalesWithWatts(t *testing.T) {
	cost := costFor(resnet.R18)
	e60 := EstimateFrame("R-18", cost, Mode60W, 1)
	if e60.EnergyMJ <= 0 {
		t.Fatal("energy must be positive")
	}
	// Energy = W × t; verify consistency.
	if diff := e60.EnergyMJ - float64(Mode60W.Watts)*e60.TotalMs; diff > 1e-9 {
		t.Fatal("energy accounting inconsistent")
	}
}

func TestFPSInverse(t *testing.T) {
	cost := costFor(resnet.R18)
	e := EstimateFrame("R-18", cost, Mode60W, 1)
	if f := e.FPS(); f < 1 || f > 1000 {
		t.Fatalf("FPS %v implausible", f)
	}
	if e.FPS()*e.TotalMs < 999 || e.FPS()*e.TotalMs > 1001 {
		t.Fatal("FPS inconsistent with TotalMs")
	}
}

func TestSOTAEpochExceedsOneHour(t *testing.T) {
	// The paper §II: "Each epoch on Orin took greater than 1 hour".
	cost := costFor(resnet.R18)
	d := SOTAEpochCost(cost, CARLANEScaleWorkload(), Mode60W)
	if d < time.Hour {
		t.Fatalf("SOTA epoch %v, paper reports > 1 h", d)
	}
	// Sanity upper bound: it is hours, not days.
	if d > 12*time.Hour {
		t.Fatalf("SOTA epoch %v implausibly long", d)
	}
}

func TestSOTAvsLDBNAdaptGap(t *testing.T) {
	// The whole point: per-frame LD-BN-ADAPT adaptation is ~6 orders
	// of magnitude cheaper than one SOTA epoch.
	cost := costFor(resnet.R18)
	frame := LDBNAdaptPerFrameCost(cost, Mode60W)
	epoch := SOTAEpochCost(cost, CARLANEScaleWorkload(), Mode60W)
	if ratio := float64(epoch) / float64(frame); ratio < 1e4 {
		t.Fatalf("cost gap only %.0fx — too small", ratio)
	}
}

// TestInt8PricedSpeedup pins the int8 rung's deployment claim: one
// full-scale R-18 frame at 30 W, bs 1, is priced 2.443× cheaper on the
// int8 tensor cores than in float. The ratio stays well under the raw
// Int8GOPS/EffGFLOPS ratio because the fixed dispatch overhead is the
// same on both paths. PERFORMANCE.md quotes this number.
func TestInt8PricedSpeedup(t *testing.T) {
	cost := costFor(resnet.R18)
	fp := EstimateInferenceBatch("R-18", cost, Mode30W, 1)
	q8 := EstimateInferenceBatchInt8("R-18", cost, Mode30W, 1)
	if got := fp.PerFrameMs / q8.PerFrameMs; math.Abs(got-2.443) > 0.001 {
		t.Fatalf("priced int8 speed-up %.4f, want 2.443 ± 0.001", got)
	}
}

func TestSelectPrefersLowPowerFeasible(t *testing.T) {
	c18, c34 := costFor(resnet.R18), costFor(resnet.R34)
	var cands []Candidate
	for _, m := range Modes {
		cands = append(cands,
			Candidate{Estimate: EstimateFrame("R-18", c18, m, 1), Robust: false},
			Candidate{Estimate: EstimateFrame("R-34", c34, m, 1), Robust: true})
	}
	// Strict 30 FPS: only R-18@60W survives (per Fig. 3).
	rec, err := Select(Requirement{DeadlineMs: Deadline30FPS}, cands)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Chosen.Estimate.ModelName != "R-18" || rec.Chosen.Estimate.Mode.Watts != 60 {
		t.Fatalf("30FPS choice = %s@%dW", rec.Chosen.Estimate.ModelName, rec.Chosen.Estimate.Mode.Watts)
	}
	// Relaxed deadline with a 50 W cap: paper says R-18 at 50 W.
	rec, err = Select(Requirement{DeadlineMs: Deadline18FPS, PowerBudgetW: 50}, cands)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Chosen.Estimate.ModelName != "R-18" || rec.Chosen.Estimate.Mode.Watts != 50 {
		t.Fatalf("50W choice = %s@%dW", rec.Chosen.Estimate.ModelName, rec.Chosen.Estimate.Mode.Watts)
	}
	// Relaxed deadline, multi-target: paper recommends R-34.
	rec, err = Select(Requirement{DeadlineMs: Deadline18FPS, MultiTarget: true}, cands)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Chosen.Estimate.ModelName != "R-34" {
		t.Fatalf("multi-target choice = %s", rec.Chosen.Estimate.ModelName)
	}
	// Impossible requirement errors out.
	if _, err := Select(Requirement{DeadlineMs: 1}, cands); err == nil {
		t.Fatal("infeasible requirement accepted")
	}
}

func TestWriteLatencyTable(t *testing.T) {
	cost := costFor(resnet.R18)
	var sb strings.Builder
	WriteLatencyTable(&sb, []Estimate{EstimateFrame("R-18", cost, Mode60W, 1)})
	out := sb.String()
	for _, want := range []string{"R-18", "MAXN", "meet"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestEstimateFramePanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bs=0 accepted")
		}
	}()
	EstimateFrame("x", costFor(resnet.R18), Mode60W, 0)
}

// TestBatchPricingMonotone is the serving-engine deadline-accounting
// contract: whole-batch latency must rise with batch size while the
// amortized per-frame latency must fall (weights and fixed overhead are
// read once per batch), for both backbones under every power mode.
func TestBatchPricingMonotone(t *testing.T) {
	for _, v := range []resnet.Variant{resnet.R18, resnet.R34} {
		cost := costFor(v)
		for _, m := range Modes {
			prevBatch, prevFrame := -1.0, -1.0
			for bs := 1; bs <= 16; bs *= 2 {
				e := EstimateInferenceBatch(v.String(), cost, m, bs)
				if e.BatchMs <= 0 || e.PerFrameMs <= 0 {
					t.Fatalf("%s@%s bs=%d: non-positive estimate %+v", v, m.Name, bs, e)
				}
				if prevBatch >= 0 && e.BatchMs <= prevBatch {
					t.Fatalf("%s@%s bs=%d: batch latency %f not increasing (prev %f)",
						v, m.Name, bs, e.BatchMs, prevBatch)
				}
				if prevFrame >= 0 && e.PerFrameMs >= prevFrame {
					t.Fatalf("%s@%s bs=%d: per-frame latency %f not decreasing (prev %f)",
						v, m.Name, bs, e.PerFrameMs, prevFrame)
				}
				if diff := e.PerFrameMs*float64(e.BatchSize) - e.BatchMs; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%s@%s bs=%d: PerFrameMs inconsistent with BatchMs", v, m.Name, bs)
				}
				prevBatch, prevFrame = e.BatchMs, e.PerFrameMs
			}
		}
	}
}

// TestBatchPricingDegeneratesToSingleFrame pins bs=1 to the existing
// single-frame inference pricing so the two models cannot drift apart.
func TestBatchPricingDegeneratesToSingleFrame(t *testing.T) {
	cost := costFor(resnet.R18)
	for _, m := range Modes {
		single := EstimateInferenceOnly("R-18", cost, m)
		batch := EstimateInferenceBatch("R-18", cost, m, 1)
		if diff := batch.BatchMs - single.TotalMs; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: bs=1 batch %.6f ms != single-frame %.6f ms", m.Name, batch.BatchMs, single.TotalMs)
		}
	}
}

// TestBatchPricingSublinear asserts the serving win exists in the cost
// model: an 8-frame batch must be strictly cheaper than 8 single-frame
// invocations (which each pay the fixed overhead and weight traffic).
func TestBatchPricingSublinear(t *testing.T) {
	cost := costFor(resnet.R18)
	for _, m := range Modes {
		single := EstimateInferenceOnly("R-18", cost, m)
		batch := EstimateInferenceBatch("R-18", cost, m, 8)
		if batch.BatchMs >= 8*single.TotalMs {
			t.Fatalf("%s: batched 8 frames (%.2f ms) not cheaper than 8 single frames (%.2f ms)",
				m.Name, batch.BatchMs, 8*single.TotalMs)
		}
	}
}

func TestEstimateInferenceBatchPanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bs=0 accepted")
		}
	}()
	EstimateInferenceBatch("x", costFor(resnet.R18), Mode60W, 0)
}

// TestEstimateAdaptStepMatchesFramePricing pins the per-dispatch step
// price the serving engine charges: it must equal the bs=1 AdaptMs of
// EstimateFrame (one whole step, before amortization) and shrink as
// power modes speed up.
func TestEstimateAdaptStepMatchesFramePricing(t *testing.T) {
	cost := ufld.DescribeModel(ufld.FullScale(resnet.R18, 4))
	prev := math.Inf(1)
	for _, mode := range Modes {
		step := EstimateAdaptStep(cost, mode)
		if step <= 0 {
			t.Fatalf("%s: non-positive step price %f", mode.Name, step)
		}
		want := EstimateFrame("R-18", cost, mode, 1).AdaptMs
		if diff := step - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: step %.6f ms != bs=1 AdaptMs %.6f ms", mode.Name, step, want)
		}
		if step >= prev {
			t.Fatalf("%s: step price %.3f ms not below the slower mode's %.3f ms", mode.Name, step, prev)
		}
		prev = step
	}
}
