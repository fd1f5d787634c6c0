// Quickstart: the end-to-end LD-BN-ADAPT story in a few seconds.
//
//  1. Generate a CARLANE-style MoLane benchmark (sim source, real
//     target).
//  2. Pre-train a UFLD ResNet-18 lane detector on labeled simulator
//     data.
//  3. Observe the sim-to-real accuracy drop on the target domain.
//  4. Deploy LD-BN-ADAPT: per-frame, fully unsupervised BN adaptation.
//  5. Observe the recovered accuracy — no labels, ~1% of parameters.
//
// The sizes are small enough for the Example in main_test.go to run
// the whole program in tier-1; its Output block is what this prints.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/metrics"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	rng := tensor.NewRNG(7)

	fmt.Fprintln(w, "== 1. generating MoLane benchmark (CARLA-style sim -> model-vehicle target)")
	bench := carlane.Build(carlane.MoLane, resnet.R18, ufld.Tiny,
		carlane.Sizes{SourceTrain: 40, SourceVal: 16, TargetTrain: 24, TargetVal: 24}, 11)
	carlane.WriteBenchmarkTable(w, bench)

	fmt.Fprintln(w, "\n== 2. pre-training UFLD R-18 on labeled simulator data")
	model := ufld.MustNewModel(bench.Cfg, rng)
	tc := ufld.DefaultTrainConfig()
	tc.Epochs = 3
	tc.BatchSize = 2
	tc.Log = w
	if _, err := ufld.TrainSource(model, bench.SourceTrain, tc, rng.Split()); err != nil {
		return err
	}
	srcAcc := ufld.Evaluate(model, bench.SourceVal, 8).Accuracy
	fmt.Fprintf(w, "   simulator accuracy: %s\n", metrics.FormatPct(srcAcc))

	fmt.Fprintln(w, "\n== 3. deploying into the target domain without adaptation")
	before := ufld.Evaluate(model, bench.TargetVal, 8)
	fmt.Fprintf(w, "   target accuracy: %s (prediction entropy %.3f) — the sim-to-real gap\n",
		metrics.FormatPct(before.Accuracy), before.MeanEntropy)

	fmt.Fprintln(w, "\n== 4. enabling LD-BN-ADAPT (batch size 1: adapt after every frame)")
	fmt.Fprintf(w, "   adapted parameters: %d of %d (%.1f%%)\n",
		nn.ParamCount(model.BNParams()), nn.ParamCount(model.Params()),
		100*float64(nn.ParamCount(model.BNParams()))/float64(nn.ParamCount(model.Params())))
	method := adapt.NewLDBNAdapt(model, adapt.DefaultConfig())
	res := adapt.RunOnline(model, method, bench.TargetTrain, bench.TargetVal, 1)
	fmt.Fprintf(w, "   %d frames streamed, %d adaptation steps\n", res.Frames, method.Steps())

	fmt.Fprintln(w, "\n== 5. results")
	after := ufld.Evaluate(model, bench.TargetVal, 8)
	fmt.Fprintf(w, "   target accuracy: %s -> %s (entropy %.3f -> %.3f)\n",
		metrics.FormatPct(before.Accuracy), metrics.FormatPct(after.Accuracy),
		before.MeanEntropy, after.MeanEntropy)
	return nil
}
