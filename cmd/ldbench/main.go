// Command ldbench regenerates every figure and quantitative claim of
// the paper:
//
//	ldbench -exp fig1              benchmark composition (Fig. 1)
//	ldbench -exp fig2              accuracy grid (Fig. 2) — trains models
//	ldbench -exp fig3              Orin latency vs power mode (Fig. 3)
//	ldbench -exp sotacost          §II claim: SOTA epoch > 1 h on Orin
//	ldbench -exp ablation          §III claim: BN beats conv/FC adaptation
//	ldbench -exp all               everything
//
// The -profile flag selects the scale: "quick" finishes in minutes on
// one core, "full" (`go run ./cmd/ldbench -profile full`) is the
// paper-scale run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ldbnadapt/internal/cli"
	"ldbnadapt/internal/experiments"
	"ldbnadapt/internal/metrics"
	"ldbnadapt/internal/tensor"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig1|fig2|fig3|sotacost|ablation|momentum|all")
	profile := flag.String("profile", "quick", "scale profile: quick|medium|full")
	benches := flag.String("benchmarks", "MoLane,TuLane,MuLane", "comma-separated benchmark subset for fig2")
	models := flag.String("models", "R-18,R-34", "comma-separated backbone subset for fig2/ablation")
	seed := flag.Uint64("seed", 1, "experiment seed")
	verbose := flag.Bool("v", true, "log progress")
	flag.Parse()

	var p experiments.Profile
	switch *profile {
	case "quick":
		p = experiments.Quick()
	case "medium":
		p = experiments.Medium()
	case "full":
		p = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "ldbench: unknown profile %q\n", *profile)
		os.Exit(2)
	}
	p.Seed = *seed

	var log *os.File
	if *verbose {
		log = os.Stderr
	}

	benchNames, err := cli.ParseBenchmarks(*benches)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldbench:", err)
		os.Exit(2)
	}
	variants, err := cli.ParseVariants(*models)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldbench:", err)
		os.Exit(2)
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	start := time.Now()

	if run("fig1") {
		fmt.Printf("=== FIG1: CARLANE-style benchmark composition (profile %s) ===\n", p.Name)
		experiments.RunFig1(p, os.Stdout)
	}
	if run("fig3") {
		fmt.Println("=== FIG3: latency on Jetson Orin per power mode (LD-BN-ADAPT, bs=1, full-scale models) ===")
		experiments.WriteFig3(os.Stdout, 4)
		fmt.Println()
	}
	if run("sotacost") {
		fmt.Println("=== SOTACOST: CARLANE SOTA adaptation cost on Orin (paper §II: >1 h/epoch) ===")
		experiments.WriteSOTACost(os.Stdout, 4)
		fmt.Println()
	}
	if run("fig2") {
		fmt.Printf("=== FIG2: lane-detection accuracy (profile %s) ===\n", p.Name)
		res, err := experiments.RunFig2(p, benchNames, variants, log)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: fig2: %v\n", err)
			os.Exit(1)
		}
		res.WriteTable(os.Stdout)
		for _, method := range []string{"NoAdapt", "CARLANE-SOTA", "LD-BN-ADAPT"} {
			best := res.BestPerBenchmark(method)
			var vals []float64
			var parts []string
			for _, bn := range benchNames {
				if v, ok := best[string(bn)]; ok {
					vals = append(vals, v)
					parts = append(parts, fmt.Sprintf("%s %s", bn, metrics.FormatPct(v)))
				}
			}
			if len(vals) > 0 {
				fmt.Printf("best %-14s %s (avg %s)\n", method, strings.Join(parts, ", "),
					metrics.FormatPct(metrics.Mean(vals)))
			}
		}
		fmt.Println()
	}
	if run("momentum") {
		fmt.Printf("=== MOMENTUM: BN statistics EMA ablation on MoLane (profile %s) ===\n", p.Name)
		cells, err := experiments.RunMomentumAblation(p, variants[0], log)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ldbench: momentum:", err)
			os.Exit(1)
		}
		experiments.WriteMomentumAblation(os.Stdout, cells)
		fmt.Println()
	}
	if run("ablation") {
		fmt.Printf("=== ABLATION: adapted-parameter-set comparison on MoLane (profile %s) ===\n", p.Name)
		cells, err := experiments.RunAblation(p, variants[0], log)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: ablation: %v\n", err)
			os.Exit(1)
		}
		experiments.WriteAblation(os.Stdout, cells)
		fmt.Println()
	}
	fmt.Printf("done in %s (%s kernels)\n", time.Since(start).Round(time.Second), tensor.Kernels())
}
