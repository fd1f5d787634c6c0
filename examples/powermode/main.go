// Powermode: the paper's §IV deployment analysis (Fig. 3 workflow).
//
// Given the full-scale UFLD R-18 and R-34 architectures, price
// inference + LD-BN-ADAPT adaptation on every Jetson Orin power mode,
// check the 30 FPS and 18 FPS deadlines, and use the advisor to answer
// the paper's deployment questions ("if there is a strict power
// constraint of 50W then R-18 should be used...").
//
// Run with: go run ./examples/powermode
package main

import (
	"fmt"
	"io"
	"os"

	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/ufld"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "powermode:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	c18 := ufld.DescribeModel(ufld.FullScale(resnet.R18, 4))
	c34 := ufld.DescribeModel(ufld.FullScale(resnet.R34, 4))
	fmt.Fprintf(w, "UFLD R-18: %.1f GFLOPs, %.1fM params\n",
		float64(c18.TotalFLOPs())/1e9, float64(c18.TotalParams())/1e6)
	fmt.Fprintf(w, "UFLD R-34: %.1f GFLOPs, %.1fM params\n\n",
		float64(c34.TotalFLOPs())/1e9, float64(c34.TotalParams())/1e6)

	var estimates []orin.Estimate
	var candidates []orin.Candidate
	for _, mode := range orin.Modes {
		e18 := orin.EstimateFrame("R-18", c18, mode, 1)
		e34 := orin.EstimateFrame("R-34", c34, mode, 1)
		estimates = append(estimates, e18, e34)
		candidates = append(candidates,
			orin.Candidate{Estimate: e18, Robust: false},
			orin.Candidate{Estimate: e34, Robust: true})
	}
	fmt.Fprintln(w, "latency per power mode (inference + LD-BN-ADAPT, bs=1):")
	orin.WriteLatencyTable(w, estimates)

	ask := func(desc string, req orin.Requirement) {
		rec, err := orin.Select(req, candidates)
		if err != nil {
			fmt.Fprintf(w, "\n%s\n  -> no feasible deployment (%v)\n", desc, err)
			return
		}
		e := rec.Chosen.Estimate
		fmt.Fprintf(w, "\n%s\n  -> %s at %s (%.1f ms, %.1f FPS, %.0f mJ/frame); %d feasible options\n",
			desc, e.ModelName, e.Mode.Name, e.TotalMs, e.FPS(), e.EnergyMJ, len(rec.Feasible))
	}
	ask("Q1: strict 30 FPS camera deadline, no power limit?",
		orin.Requirement{DeadlineMs: orin.Deadline30FPS})
	ask("Q2: 18 FPS deadline (Audi A8 level-3 class) with a strict 50 W power constraint?",
		orin.Requirement{DeadlineMs: orin.Deadline18FPS, PowerBudgetW: 50})
	ask("Q3: 18 FPS deadline, multi-target conditions (prefer the more robust R-34)?",
		orin.Requirement{DeadlineMs: orin.Deadline18FPS, MultiTarget: true})
	ask("Q4: 30 FPS deadline at only 15 W?",
		orin.Requirement{DeadlineMs: orin.Deadline30FPS, PowerBudgetW: 15})
	return nil
}
