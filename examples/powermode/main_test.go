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
	// UFLD R-18: 15.9 GFLOPs, 61.2M params
	// UFLD R-34: 33.0 GFLOPs, 71.3M params
	//
	// latency per power mode (inference + LD-BN-ADAPT, bs=1):
	// model    mode             bs    infer    adapt    total      fps  30FPS  18FPS
	// R-18     15W               1    39.4ms   121.4ms   166.8ms     6.0   miss   miss
	// R-34     15W               1    75.2ms   232.2ms   313.4ms     3.2   miss   miss
	// R-18     30W               1    17.9ms    55.2ms    76.6ms    13.1   miss   miss
	// R-34     30W               1    34.2ms   105.5ms   143.2ms     7.0   miss   miss
	// R-18     50W               1    10.8ms    33.3ms    46.7ms    21.4   miss   meet
	// R-34     50W               1    20.7ms    64.1ms    87.3ms    11.5   miss   miss
	// R-18     MAXN (60W)        1     6.8ms    21.1ms    29.9ms    33.4   meet   meet
	// R-34     MAXN (60W)        1    12.9ms    39.7ms    54.6ms    18.3   miss   meet
	//
	// Q1: strict 30 FPS camera deadline, no power limit?
	//   -> R-18 at MAXN (60W) (29.9 ms, 33.4 FPS, 1794 mJ/frame); 1 feasible options
	//
	// Q2: 18 FPS deadline (Audi A8 level-3 class) with a strict 50 W power constraint?
	//   -> R-18 at 50W (46.7 ms, 21.4 FPS, 2334 mJ/frame); 1 feasible options
	//
	// Q3: 18 FPS deadline, multi-target conditions (prefer the more robust R-34)?
	//   -> R-34 at MAXN (60W) (54.6 ms, 18.3 FPS, 3275 mJ/frame); 3 feasible options
	//
	// Q4: 30 FPS deadline at only 15 W?
	//   -> no feasible deployment (orin: no candidate meets 33.3 ms within 15 W)
}
