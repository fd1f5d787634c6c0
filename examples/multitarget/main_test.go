package main

import (
	"fmt"
	"os"
)

func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// MuLane (multi-target: model-vehicle + highway interleaved):
	// model  source  no-adapt  LD-BN-ADAPT bs=1
	// -----  ------  --------  ----------------
	// R-18   44.60%  39.36%    49.65%
	// R-34   35.54%  30.14%    36.52%
	//
	// The two target domains pull the BN statistics in opposite directions
	// (model-vehicle frames are dark, highway frames hazy-bright), yet
	// adapting to the mixture lifts both backbones above their unadapted
	// accuracy. At this size R-34 does not beat R-18; the paper's preference
	// for R-34 under multi-target conditions is the advisor rule that
	// examples/powermode applies when the 18 FPS deadline allows it.
}
