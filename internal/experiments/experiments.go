// Package experiments regenerates every figure and quantitative claim
// of the paper's evaluation: Fig. 1 (benchmark composition), Fig. 2
// (lane-detection accuracy across benchmarks, methods, batch sizes and
// backbones), Fig. 3 (latency per Jetson Orin power mode against the
// 30 FPS / 18 FPS deadlines), the §II SOTA-cost claim and the §III
// parameter-set ablation. The same entry points back cmd/ldbench;
// regenerate the paper-scale numbers with
// `go run ./cmd/ldbench -profile full`.
package experiments

import (
	"fmt"
	"io"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/metrics"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/sota"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// Profile bundles the scale knobs of an experiment run.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// CfgFor builds the detector config for a variant and lane count.
	CfgFor func(resnet.Variant, int) ufld.Config
	// Sizes fixes the dataset split sizes.
	Sizes carlane.Sizes
	// TrainEpochs is the source pre-training epoch count.
	TrainEpochs int
	// SOTAEpochs is the baseline's retraining epoch count.
	SOTAEpochs int
	// Seed makes the whole run reproducible.
	Seed uint64
}

// Quick returns a minutes-scale profile (tiny models, small splits) —
// used by unit tests and the testing.B benchmarks.
func Quick() Profile {
	return Profile{
		Name:        "quick",
		CfgFor:      ufld.Tiny,
		Sizes:       carlane.Sizes{SourceTrain: 48, SourceVal: 16, TargetTrain: 32, TargetVal: 24},
		TrainEpochs: 5,
		SOTAEpochs:  2,
		Seed:        1,
	}
}

// Full returns the profile behind `go run ./cmd/ldbench -profile full`:
// the Small detector configuration with the default split sizes.
func Full() Profile {
	return Profile{
		Name:        "full",
		CfgFor:      ufld.Small,
		Sizes:       carlane.Sizes{SourceTrain: 192, SourceVal: 40, TargetTrain: 192, TargetVal: 64},
		TrainEpochs: 10,
		SOTAEpochs:  2,
		Seed:        1,
	}
}

// Fig2Cell is one bar of the paper's Fig. 2.
type Fig2Cell struct {
	// Benchmark is "MoLane", "TuLane" or "MuLane".
	Benchmark string
	// Model is "R-18" or "R-34".
	Model string
	// Method is "NoAdapt", "CARLANE-SOTA" or "LD-BN-ADAPT".
	Method string
	// BatchSize is the adaptation batch size (0 for NoAdapt/SOTA).
	BatchSize int
	// Accuracy is the target-validation accuracy in [0, 1].
	Accuracy float64
	// OnlineAccuracy is the during-stream accuracy (LD-BN-ADAPT only).
	OnlineAccuracy float64
}

// Fig2Result is the full accuracy grid.
type Fig2Result struct {
	// Cells holds every (benchmark, model, method, bs) accuracy.
	Cells []Fig2Cell
	// SourceAcc maps "benchmark/model" to source-validation accuracy
	// (the upper reference line).
	SourceAcc map[string]float64
}

// trainSourceModel builds the benchmark data and pre-trains the UFLD
// model on the simulator source split.
func trainSourceModel(p Profile, name carlane.BenchmarkName, v resnet.Variant, seed uint64, log io.Writer) (*carlane.Benchmark, *ufld.Model, error) {
	b := carlane.Build(name, v, p.CfgFor, p.Sizes, seed)
	rng := tensor.NewRNG(seed + 1000)
	m, err := ufld.NewModel(b.Cfg, rng)
	if err != nil {
		return nil, nil, err
	}
	tc := ufld.DefaultTrainConfig()
	tc.Epochs = p.TrainEpochs
	if log != nil {
		fmt.Fprintf(log, "[%s %s] pre-training on %d source images (%d epochs)\n",
			name, v, b.SourceTrain.Len(), tc.Epochs)
	}
	if _, err := ufld.TrainSource(m, b.SourceTrain, tc, rng.Split()); err != nil {
		return nil, nil, err
	}
	return b, m, nil
}

// RunFig2 regenerates the accuracy grid of Fig. 2 for the given
// benchmarks and backbone variants.
func RunFig2(p Profile, benchmarks []carlane.BenchmarkName, variants []resnet.Variant, log io.Writer) (*Fig2Result, error) {
	res := &Fig2Result{SourceAcc: make(map[string]float64)}
	for _, bn := range benchmarks {
		for _, v := range variants {
			b, m, err := trainSourceModel(p, bn, v, p.Seed, log)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", bn, v, err)
			}
			key := fmt.Sprintf("%s/%s", bn, v)
			res.SourceAcc[key] = ufld.Evaluate(m, b.SourceVal, 8).Accuracy

			// (i) UFLD with no adaptation.
			noAdapt := ufld.Evaluate(m, b.TargetVal, 8).Accuracy
			res.Cells = append(res.Cells, Fig2Cell{
				Benchmark: string(bn), Model: v.String(), Method: "NoAdapt", Accuracy: noAdapt,
			})
			if log != nil {
				fmt.Fprintf(log, "[%s %s] source %.4f, no-adapt %.4f\n", bn, v, res.SourceAcc[key], noAdapt)
			}

			// (ii) CARLANE SOTA baseline (full retraining, needs
			// labeled source data on device).
			ms := m.Clone(tensor.NewRNG(p.Seed + 7))
			sc := sota.DefaultConfig()
			sc.Epochs = p.SOTAEpochs
			if _, err := sota.New(ms, sc).Run(b.SourceTrain, b.TargetTrain, tensor.NewRNG(p.Seed+8)); err != nil {
				return nil, fmt.Errorf("experiments: sota %s/%s: %w", bn, v, err)
			}
			sotaAcc := ufld.Evaluate(ms, b.TargetVal, 8).Accuracy
			res.Cells = append(res.Cells, Fig2Cell{
				Benchmark: string(bn), Model: v.String(), Method: "CARLANE-SOTA", Accuracy: sotaAcc,
			})
			if log != nil {
				fmt.Fprintf(log, "[%s %s] SOTA %.4f\n", bn, v, sotaAcc)
			}

			// (iii) Real-time LD-BN-ADAPT at batch sizes 1, 2, 4.
			for _, bs := range []int{1, 2, 4} {
				mc := m.Clone(tensor.NewRNG(p.Seed + uint64(10+bs)))
				meth := adapt.NewLDBNAdapt(mc, adapt.DefaultConfig())
				r := adapt.RunOnline(mc, meth, b.TargetTrain, b.TargetVal, bs)
				res.Cells = append(res.Cells, Fig2Cell{
					Benchmark: string(bn), Model: v.String(), Method: "LD-BN-ADAPT",
					BatchSize: bs, Accuracy: r.FinalAccuracy, OnlineAccuracy: r.OnlineAccuracy,
				})
				if log != nil {
					fmt.Fprintf(log, "[%s %s] LD-BN-ADAPT bs=%d: %.4f (online %.4f)\n",
						bn, v, bs, r.FinalAccuracy, r.OnlineAccuracy)
				}
			}
		}
	}
	return res, nil
}

// BestPerBenchmark returns, per benchmark, the best accuracy the given
// method achieves across models (and batch sizes) — the quantity the
// paper quotes ("LD-BN-ADAPT's best accuracies ... avg of 92.19%").
func (r *Fig2Result) BestPerBenchmark(method string) map[string]float64 {
	out := make(map[string]float64)
	for _, c := range r.Cells {
		if c.Method != method {
			continue
		}
		if c.Accuracy > out[c.Benchmark] {
			out[c.Benchmark] = c.Accuracy
		}
	}
	return out
}

// WriteTable renders the grid as text.
func (r *Fig2Result) WriteTable(w io.Writer) {
	tb := metrics.NewTable("benchmark", "model", "method", "bs", "accuracy", "online")
	for _, c := range r.Cells {
		bs := "-"
		if c.BatchSize > 0 {
			bs = fmt.Sprint(c.BatchSize)
		}
		online := "-"
		if c.OnlineAccuracy > 0 {
			online = metrics.FormatPct(c.OnlineAccuracy)
		}
		tb.AddRow(c.Benchmark, c.Model, c.Method, bs, metrics.FormatPct(c.Accuracy), online)
	}
	if _, err := tb.WriteTo(w); err != nil {
		fmt.Fprintln(w, err)
	}
	for key, acc := range r.SourceAcc {
		fmt.Fprintf(w, "source-val %-14s %s\n", key, metrics.FormatPct(acc))
	}
}

// RunFig3 regenerates the latency figure: LD-BN-ADAPT (batch size 1,
// the configuration the paper selects) on R-18 and R-34 across every
// Orin power mode, using the full-scale model costs.
func RunFig3(lanes int) []orin.Estimate {
	var out []orin.Estimate
	for _, v := range []resnet.Variant{resnet.R18, resnet.R34} {
		cost := ufld.DescribeModel(ufld.FullScale(v, lanes))
		for _, mode := range orin.Modes {
			out = append(out, orin.EstimateFrame(v.String(), cost, mode, 1))
		}
	}
	return out
}

// WriteFig3 renders the latency table with deadline verdicts.
func WriteFig3(w io.Writer, lanes int) {
	orin.WriteLatencyTable(w, RunFig3(lanes))
	fmt.Fprintf(w, "deadlines: 30 FPS = %.1f ms, 18 FPS (Audi A8 L3) = %.1f ms\n",
		orin.Deadline30FPS, orin.Deadline18FPS)
}

// RunFig1 regenerates the benchmark-composition view of Fig. 1 for all
// three benchmarks.
func RunFig1(p Profile, w io.Writer) {
	for _, bn := range carlane.AllBenchmarks {
		b := carlane.Build(bn, resnet.R18, p.CfgFor, p.Sizes, p.Seed)
		carlane.WriteBenchmarkTable(w, b)
		fmt.Fprintln(w)
	}
}

// WriteSOTACost regenerates the §II claim: one epoch of the SOTA
// baseline on the Orin versus LD-BN-ADAPT's per-frame cost.
func WriteSOTACost(w io.Writer, lanes int) {
	wl := orin.CARLANEScaleWorkload()
	tb := metrics.NewTable("model", "mode", "SOTA epoch", "10 epochs", "LD-BN-ADAPT/frame")
	for _, v := range []resnet.Variant{resnet.R18, resnet.R34} {
		cost := ufld.DescribeModel(ufld.FullScale(v, lanes))
		for _, mode := range []orin.PowerMode{orin.Mode60W, orin.Mode30W} {
			epoch := orin.SOTAEpochCost(cost, wl, mode)
			frame := orin.LDBNAdaptPerFrameCost(cost, mode)
			tb.AddRow(v.String(), mode.Name,
				fmt.Sprintf("%.1f h", epoch.Hours()),
				fmt.Sprintf("%.0f h", 10*epoch.Hours()),
				fmt.Sprintf("%.1f ms", float64(frame.Microseconds())/1000))
		}
	}
	if _, err := tb.WriteTo(w); err != nil {
		fmt.Fprintln(w, err)
	}
	fmt.Fprintf(w, "workload: %d labeled source + %d unlabeled target samples/epoch (CARLANE MoLane scale)\n",
		wl.SourceSamples, wl.TargetSamples)
}

// AblationCell is one row of the §III parameter-set ablation.
type AblationCell struct {
	// Method names the adapted parameter set or loss variant.
	Method string
	// Accuracy is target-validation accuracy after adaptation.
	Accuracy float64
	// AdaptedParams counts the scalars the method updates.
	AdaptedParams int
}

// RunAblation reproduces the paper's §III observation that BN-based
// adaptation beats convolutional and fully-connected adaptation, plus
// the entropy-vs-confidence loss comparison, on MoLane.
func RunAblation(p Profile, v resnet.Variant, log io.Writer) ([]AblationCell, error) {
	b, m, err := trainSourceModel(p, carlane.MoLane, v, p.Seed, log)
	if err != nil {
		return nil, err
	}
	var out []AblationCell
	out = append(out, AblationCell{
		Method:   "NoAdapt",
		Accuracy: ufld.Evaluate(m, b.TargetVal, 8).Accuracy,
	})
	type mk struct {
		name string
		make func(*ufld.Model) adapt.Method
	}
	cfg := adapt.DefaultConfig()
	confCfg := cfg
	confCfg.Loss = adapt.Confidence
	// Conv/FC adaptation uses a smaller LR: full-weight entropy steps
	// at the BN rate destabilize immediately.
	weightCfg := cfg
	weightCfg.LR = cfg.LR / 10
	makers := []mk{
		{"LD-BN-ADAPT (entropy)", func(m *ufld.Model) adapt.Method { return adapt.NewLDBNAdapt(m, cfg) }},
		{"LD-BN-ADAPT (confidence)", func(m *ufld.Model) adapt.Method { return adapt.NewLDBNAdapt(m, confCfg) }},
		{"CONV-ADAPT", func(m *ufld.Model) adapt.Method { return adapt.NewConvAdapt(m, weightCfg) }},
		{"FC-ADAPT", func(m *ufld.Model) adapt.Method { return adapt.NewFCAdapt(m, weightCfg) }},
	}
	for _, mker := range makers {
		mc := m.Clone(tensor.NewRNG(p.Seed + 60))
		meth := mker.make(mc)
		r := adapt.RunOnline(mc, meth, b.TargetTrain, b.TargetVal, 1)
		cell := AblationCell{Method: mker.name, Accuracy: r.FinalAccuracy}
		switch v := meth.(type) {
		case *adapt.LDBNAdapt:
			cell.AdaptedParams = v.AdaptedParamCount()
		}
		out = append(out, cell)
		if log != nil {
			fmt.Fprintf(log, "[ablation] %-26s %.4f\n", mker.name, r.FinalAccuracy)
		}
	}
	return out, nil
}

// WriteAblation renders the ablation table.
func WriteAblation(w io.Writer, cells []AblationCell) {
	tb := metrics.NewTable("method", "target accuracy", "adapted params")
	for _, c := range cells {
		params := "-"
		if c.AdaptedParams > 0 {
			params = fmt.Sprint(c.AdaptedParams)
		}
		tb.AddRow(c.Method, metrics.FormatPct(c.Accuracy), params)
	}
	if _, err := tb.WriteTo(w); err != nil {
		fmt.Fprintln(w, err)
	}
}

// MomentumCell is one row of the BN-statistics-momentum ablation.
type MomentumCell struct {
	// AdaptMomentum is the EMA factor used by Adapt-mode normalization
	// (1.0 = raw per-batch statistics, TENT's choice).
	AdaptMomentum float32
	// Accuracy is target-validation accuracy after online adaptation
	// at batch size 1.
	Accuracy float64
}

// RunMomentumAblation sweeps the Adapt-mode statistics momentum on
// MoLane — the reason Adapt mode keeps an EMA at all: at full scale,
// per-image statistics are stable and TENT normalizes with raw batch
// stats (momentum 1); at reduced scale an EMA over the stream is
// needed for batch-size-1 stability.
func RunMomentumAblation(p Profile, v resnet.Variant, log io.Writer) ([]MomentumCell, error) {
	b, m, err := trainSourceModel(p, carlane.MoLane, v, p.Seed, log)
	if err != nil {
		return nil, err
	}
	var out []MomentumCell
	for _, am := range []float32{0.1, 0.3, 0.5, 1.0} {
		mc := m.Clone(tensor.NewRNG(p.Seed + 80))
		for _, bn := range mc.BatchNorms() {
			bn.AdaptMomentum = am
		}
		meth := adapt.NewLDBNAdapt(mc, adapt.DefaultConfig())
		r := adapt.RunOnline(mc, meth, b.TargetTrain, b.TargetVal, 1)
		out = append(out, MomentumCell{AdaptMomentum: am, Accuracy: r.FinalAccuracy})
		if log != nil {
			fmt.Fprintf(log, "[momentum] am=%.1f: %.4f\n", am, r.FinalAccuracy)
		}
	}
	return out, nil
}

// WriteMomentumAblation renders the momentum ablation table.
func WriteMomentumAblation(w io.Writer, cells []MomentumCell) {
	tb := metrics.NewTable("adapt momentum", "target accuracy", "note")
	for _, c := range cells {
		note := ""
		if c.AdaptMomentum == 1.0 {
			note = "raw batch stats (TENT)"
		}
		tb.AddRow(fmt.Sprintf("%.1f", c.AdaptMomentum), metrics.FormatPct(c.Accuracy), note)
	}
	if _, err := tb.WriteTo(w); err != nil {
		fmt.Fprintln(w, err)
	}
}

// Medium returns an intermediate profile: the Small detector with
// reduced split sizes and epochs — for filling individual Fig. 2 cells
// in bounded time on a single core.
func Medium() Profile {
	return Profile{
		Name:        "medium",
		CfgFor:      ufld.Small,
		Sizes:       carlane.Sizes{SourceTrain: 128, SourceVal: 32, TargetTrain: 128, TargetVal: 48},
		TrainEpochs: 7,
		SOTAEpochs:  2,
		Seed:        1,
	}
}
