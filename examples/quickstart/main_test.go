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
	// == 1. generating MoLane benchmark (CARLA-style sim -> model-vehicle target)
	// MoLane (2 lanes, 32x80 input, 10 cells x 6 anchors)
	//   split                  domain            n brightness   points   absent
	//   MoLane/source-train    sim              40  0.409±0.162      480        0
	//   MoLane/source-val      sim              16  0.410±0.163      192        0
	//   MoLane/target-train    molane-real      24  0.172±0.087      288        0
	//   MoLane/target-val      molane-real      24  0.171±0.088      288        0
	//
	// == 2. pre-training UFLD R-18 on labeled simulator data
	// epoch 1/3: loss 2.3926
	// epoch 2/3: loss 1.7360
	// epoch 3/3: loss 1.0650
	//    simulator accuracy: 86.98%
	//
	// == 3. deploying into the target domain without adaptation
	//    target accuracy: 58.68% (prediction entropy 1.930) — the sim-to-real gap
	//
	// == 4. enabling LD-BN-ADAPT (batch size 1: adapt after every frame)
	//    adapted parameters: 604 of 51308 (1.2%)
	//    24 frames streamed, 24 adaptation steps
	//
	// == 5. results
	//    target accuracy: 58.68% -> 77.08% (entropy 1.930 -> 1.271)
}
