// Multistream: the serving-scale extension of the paper's deployment —
// eight 30 FPS cameras with independent domain drift are multiplexed
// onto one shared-weight model by the dynamic-batching engine, each
// stream adapting its own BatchNorm state with LD-BN-ADAPT while
// latency is priced by the Jetson Orin performance model.
//
// The engine runs one worker, where the served accuracy does not depend
// on host scheduling, so every number printed is a function of the
// seeds. Host throughput is not printed here; the repo's benchmark
// measures it (frames_per_s on the serve_board workload). The sizes are
// small enough for the Example in main_test.go to run the whole program
// in tier-1; its Output block is what this prints.
//
// Run with: go run ./examples/multistream
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/metrics"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "multistream:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	const streams, frames = 8, 12
	rng := tensor.NewRNG(41)
	cfg := ufld.Tiny(resnet.R18, 2)
	src := carlane.Generate(cfg, carlane.SplitSpec{
		Name:    "multistream/source-train",
		Layouts: []carlane.Layout{carlane.Ego2},
		Domains: []carlane.Domain{carlane.Sim},
		N:       40,
		Seed:    41,
	})
	model := ufld.MustNewModel(cfg, rng)
	tc := ufld.DefaultTrainConfig()
	tc.Epochs = 3
	tc.BatchSize = 2
	if _, err := ufld.TrainSource(model, src, tc, rng.Split()); err != nil {
		return err
	}

	fleet := serve.SyntheticFleet(cfg, streams, frames, 30, 4100)
	fmt.Fprintf(w, "serving %d streams × %d frames (%d total) against the %.1f ms budget\n\n",
		streams, frames, streams*frames, orin.Deadline30FPS)

	base := serve.Config{
		Variant:  resnet.R18,
		Workers:  1,
		MaxBatch: 8,
		Window:   2 * time.Millisecond,
		Adapt:    adapt.DefaultConfig(),
		Mode:     orin.Mode60W,
	}

	adapted := base
	adapted.AdaptEvery = 4
	repAdapted := serve.New(model, adapted).Run(fleet)

	frozen := base
	frozen.AdaptEvery = 0
	repFrozen := serve.New(model, frozen).Run(fleet)

	// The paper's per-frame loop on the same engine and worker: one
	// frame per forward and a step on every frame.
	naive := base
	naive.MaxBatch = 1
	naive.AdaptEvery = 1
	repNaive := serve.New(model, naive).Run(fleet)

	tb := metrics.NewTable("deployment", "mean batch", "online acc", "p50 ms", "p99 ms", "miss rate")
	for _, row := range []struct {
		label string
		rep   serve.Report
	}{
		{"batched + LD-BN-ADAPT (every 4)", repAdapted},
		{"batched, no adaptation", repFrozen},
		{"unbatched, adapt every frame", repNaive},
	} {
		tb.AddRow(row.label, fmt.Sprintf("%.2f", row.rep.MeanBatch), metrics.FormatPct(row.rep.OnlineAccuracy),
			fmt.Sprintf("%.1f", row.rep.P50LatencyMs), fmt.Sprintf("%.1f", row.rep.P99LatencyMs),
			metrics.FormatPct(row.rep.MissRate))
	}
	if _, err := tb.WriteTo(w); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nper-stream outcomes (batched + LD-BN-ADAPT):")
	st := metrics.NewTable("stream", "online acc", "p99 ms", "miss rate", "adapt steps")
	for _, sr := range repAdapted.Streams {
		st.AddRow(fmt.Sprintf("#%02d", sr.Stream), metrics.FormatPct(sr.OnlineAccuracy),
			fmt.Sprintf("%.1f", sr.P99LatencyMs), metrics.FormatPct(sr.MissRate), sr.AdaptSteps)
	}
	if _, err := st.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nBatching cuts the per-frame loop's p99 latency and miss rate, and a step")
	fmt.Fprintln(w, "every 4 frames lifts online accuracy over the frozen model, with every")
	fmt.Fprintln(w, "stream stepping its own BN state on the one copy of the weights. One")
	fmt.Fprintln(w, "worker at MAXN still misses most 30 FPS deadlines for eight cameras.")

	// Fig. 3 coda: on the Orin cost model, coalescing also moves power
	// modes across the deadline line — the 30 W mode misses 30 FPS with
	// the paper's per-frame loop but holds it when frames are batched.
	lowPower := adapted
	lowPower.Mode = orin.Mode30W
	batched30 := serve.New(model, lowPower).FrameLatencyMs(8)
	cost := ufld.DescribeModel(ufld.FullScale(resnet.R18, cfg.Lanes))
	naive30 := orin.EstimateFrame("R-18", cost, orin.Mode30W, 1).TotalMs
	mark := func(ms float64) string {
		if ms <= orin.Deadline30FPS {
			return "meets"
		}
		return "misses"
	}
	fmt.Fprintf(w, "\nOrin 30 W mode: naive frame %.1f ms (%s 30 FPS) vs batched frame %.1f ms (%s 30 FPS)\n",
		naive30, mark(naive30), batched30, mark(batched30))
	return nil
}
