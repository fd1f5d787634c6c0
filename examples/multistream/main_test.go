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
	// serving 8 streams × 12 frames (96 total) against the 33.3 ms budget
	//
	// deployment                       mean batch  online acc  p50 ms  p99 ms  miss rate
	// -------------------------------  ----------  ----------  ------  ------  ---------
	// batched + LD-BN-ADAPT (every 4)  8.00        66.41%      258.1   522.2   83.33%
	// batched, no adaptation           8.00        58.68%      93.6    198.2   83.33%
	// unbatched, adapt every frame     1.00        76.30%      1192.2  2360.9  98.96%
	//
	// per-stream outcomes (batched + LD-BN-ADAPT):
	// stream  online acc  p99 ms  miss rate  adapt steps
	// ------  ----------  ------  ---------  -----------
	// #00     58.33%      522.2   83.33%     3
	// #01     68.75%      522.2   83.33%     3
	// #02     69.44%      522.2   83.33%     3
	// #03     59.72%      522.2   83.33%     3
	// #04     70.83%      522.2   83.33%     3
	// #05     71.53%      522.2   83.33%     3
	// #06     70.83%      522.2   83.33%     3
	// #07     61.81%      522.2   83.33%     3
	//
	// Batching cuts the per-frame loop's p99 latency and miss rate, and a step
	// every 4 frames lifts online accuracy over the frozen model, with every
	// stream stepping its own BN state on the one copy of the weights. One
	// worker at MAXN still misses most 30 FPS deadlines for eight cameras.
	//
	// Orin 30 W mode: naive frame 73.2 ms (misses 30 FPS) vs batched frame 29.8 ms (meets 30 FPS)
}
