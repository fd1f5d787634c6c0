// Command ldserve runs the multi-stream batched serving engine over a
// synthetic camera fleet: N streams with independent domain drift are
// multiplexed onto shared-weight worker replicas with dynamic
// batching and per-stream LD-BN-ADAPT, and the run is reported per
// stream (throughput, priced p50/p99 latency, deadline-miss rate,
// online accuracy).
//
//	ldserve -streams 8 -frames 48 -maxbatch 8 -adapt-every 4
//	ldserve -streams 8 -weights molane_r18.ldp -maxbatch 1 -adapt-every 1
//	ldserve -streams 6 -watts 15 -workers 1 -policy drop-frames
//	ldserve -streams 4 -fps 30 -fps-alt 15 -policy skip-adapt
//	ldserve -streams 4 -govern hysteresis -power-budget 50 -epoch-ms 500
//	ldserve -streams 4 -govern predictive -forecast holt
//	ldserve -streams 8 -boards 4 -workers 1 -govern hysteresis -placement bin-pack -migrate
//	ldserve -streams 12 -boards 4 -workers 1 -govern predictive -migrate -consolidate
//	ldserve -streams 8 -boards 4 -workers 1 -ckpt-every 2 -chaos kill:hot@8
//	ldserve -streams 8 -boards 4 -workers 1 -chaos join@4,drain:0@6 -ckpt-dir /tmp/ckpts
//	ldserve -streams 256 -frames 4 -fps 4 -boards 64 -workers 1 -groups 16 -shared-scenes -admit queue
//
// Latency accounting runs on an event-time virtual clock: each frame's
// latency is its measured queue wait behind earlier work plus its
// amortized batched-forward and adaptation shares, so overload
// scenarios (low -watts, -workers 1, many streams) show real queue
// growth. -policy picks what an overloaded fleet sheds — drop-none
// (queues grow unbounded), skip-adapt (adaptation steps shed under
// pressure), drop-frames (stale frames shed, waits stay within
// -backlog camera periods) — and -fps-alt gives odd-numbered streams a
// second camera rate for mixed-FPS fleets.
//
// -govern closes the loop: instead of holding -watts for the whole
// run, a governor (internal/govern: static|hysteresis|predictive|
// oracle) observes each -epoch-ms control epoch's telemetry and
// actuates the power mode, overload policy and adaptation cadence for
// the next, keeping modes within -power-budget. The report then
// includes energy (busy + static draw) and the per-epoch mode trace.
// Every stream feeds a -forecast arrival-rate model (internal/
// forecast: naive|ewma|holt) whose next-epoch predictions ride in the
// telemetry; the predictive governor pre-climbs the ladder on them.
//
// -quantized starts every board on the int8 inference rung: batched
// forwards run symmetric per-channel int8 (internal/nn InferInt8 mode)
// and are priced by the Orin's int8 tensor-core rate, trading a
// bounded accuracy cost for roughly 2.4× cheaper forwards. The
// closed-loop governors also climb to this rung on their own — after
// stretching the adaptation cadence, before shedding work — so the
// flag mainly pins the rung for static runs and A/B comparisons.
//
// -boards shards the fleet across N boards (internal/shard), each a
// full engine with its own governor: -placement picks the initial
// stream→board assignment (round-robin, least-loaded LPT, or bin-pack
// to a fill target) over admission-epoch forecast loads, and -migrate
// lets the coordinator shed the hottest streams (by forecast) off a
// board that cannot serve its predicted demand even at its top
// affordable rung, carrying each stream's adaptation state and
// forecaster to the destination board. -consolidate adds the reverse
// path: when the forecast fleet load fits on fewer boards, the
// coordinator drains the coldest board (coldest streams first) so its
// rail sleeps until migration needs it again.
//
// At fleet scale the coordinator runs hierarchically: -groups
// partitions the boards into placement groups (migration,
// consolidation and failover score within a group; a top-level placer
// rebalances streams across groups on aggregated forecast load),
// -admit gates streams that come online mid-run behind a
// forecast-headroom check (queue waits for headroom, shed rejects
// outright; -admit-util and -admit-queue tune the ceiling and the
// waiting-room cap), and -shared-scenes renders one scene set shared
// by every stream with phase-shifted arrivals so generating a
// four-digit-stream fleet costs O(frames), not O(streams × frames).
// The fleet report then ends with the coordinator-overhead line:
// fleet epochs stepped, the step rate, and the share of wall time the
// boards spent waiting on coordinator boundary work.
//
// -chaos injects a seeded membership plan ("kind[:target]@epoch" items,
// comma-separated: kill:hot@8, kill:2@5, drain:0@6, join@4) to
// exercise the fault-tolerance path: a killed board's streams re-admit
// onto survivors from their latest checkpoints, a drained board
// evacuates its streams live before retiring, and a join adds a fresh
// board the coordinator can migrate onto. -ckpt-every sets the
// checkpoint cadence in epochs (defaults to every epoch under -chaos)
// and -ckpt-dir persists checkpoints as files instead of in memory.
//
// Flag ↔ paper mapping (Fig. 3 deployment settings): -model and -watts
// select the Fig. 3 row (backbone × power mode); -deadline-fps 30|18
// selects the deadline column; -adapt-every is the adaptation batch
// size bs of the Fig. 2/3 sweep (its cost amortization); -maxbatch,
// -window, -policy and -backlog are the serving extensions this engine
// adds on top of the paper's single-camera deployment, and -govern
// takes the paper's offline power-mode analysis online. -maxbatch 1
// -adapt-every 1 is the paper's own loop (one frame per forward, a step
// on every frame): rerun with it to see what coalescing buys.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/cli"
	"ldbnadapt/internal/forecast"
	"ldbnadapt/internal/govern"
	"ldbnadapt/internal/metrics"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/obs"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/shard"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ldserve:", err)
	os.Exit(1)
}

func main() {
	streams := flag.Int("streams", 8, "number of simulated camera streams")
	frames := flag.Int("frames", 48, "frames per stream")
	fps := flag.Float64("fps", 30, "camera rate per stream")
	fpsAlt := flag.Float64("fps-alt", 0, "camera rate for odd-numbered streams (0 = same as -fps; mixed-FPS fleet)")
	policyName := flag.String("policy", "drop-none", "overload policy: drop-none|skip-adapt|drop-frames")
	backlog := flag.Int("backlog", 1, "per-stream backlog cap in camera periods before the policy sheds work")
	model := flag.String("model", "R-18", "backbone: R-18|R-34")
	profile := flag.String("profile", "tiny", "config profile: tiny|small|repro")
	lanes := flag.Int("lanes", 2, "lane count: 2 (MoLane-style fleet) or 4 (mixed TuLane/MoLane fleet)")
	watts := flag.Int("watts", 60, "Orin power mode: 15|30|50|60")
	deadlineFPS := flag.Float64("deadline-fps", 30, "frame-rate deadline (30 or 18 in the paper)")
	maxBatch := flag.Int("maxbatch", 8, "dynamic batching cap")
	windowMs := flag.Float64("window", 2, "batching window in ms")
	workers := flag.Int("workers", 0, "worker replicas (0 = GOMAXPROCS)")
	adaptEvery := flag.Int("adapt-every", 4, "LD-BN-ADAPT step per stream every N frames (0 = no adaptation)")
	adaptBatch := flag.Int("adapt-batch", 1, "frames per adaptation step")
	epochs := flag.Int("epochs", 5, "source pre-training epochs (ignored with -weights)")
	weights := flag.String("weights", "", "optional weights file from ldtrain")
	governName := flag.String("govern", "", "closed-loop governor: static|hysteresis|predictive|oracle (empty = one-shot run at -watts)")
	powerBudget := flag.Int("power-budget", 0, "governor power budget in watts (0 = unconstrained)")
	epochMs := flag.Float64("epoch-ms", 500, "governor control-epoch length in virtual ms")
	boards := flag.Int("boards", 1, "number of Orin boards; >1 shards the fleet (internal/shard), -workers becomes per-board")
	placementName := flag.String("placement", "least-loaded", "stream→board placement for -boards >1: round-robin|least-loaded|bin-pack")
	migrate := flag.Bool("migrate", false, "migrate the hottest stream off a saturated board at epoch boundaries (-boards >1)")
	consolidate := flag.Bool("consolidate", false, "drain the coldest board during forecast lulls so its rail sleeps (-boards >1, needs -migrate to reopen boards)")
	groups := flag.Int("groups", 0, "placement-group size for -boards >1: migration/consolidation/failover score within groups of this many boards, a top-level placer rebalances across them (0 = internal/shard default)")
	admitName := flag.String("admit", "", "admission gate for streams that come online mid-run (-boards >1): queue (wait for forecast headroom) or shed (reject on arrival without headroom); empty places every stream up front")
	admitUtil := flag.Float64("admit-util", 0, "forecast-utilization ceiling the admission gate fills boards to (0 = the migration headroom gate)")
	admitQueue := flag.Int("admit-queue", 0, "cap on streams waiting at the admission gate; overflow is shed (0 = unbounded, -admit queue only)")
	sharedScenes := flag.Bool("shared-scenes", false, "render one scene set shared by every stream with phase-shifted arrivals — O(frames) setup for fleet-scale runs instead of O(streams x frames)")
	forecastName := flag.String("forecast", "holt", "per-stream arrival-rate forecaster: naive|ewma|holt")
	quantized := flag.Bool("quantized", false, "start every board on the int8 inference rung (symmetric per-channel weights, per-sample activation scales); closed-loop governors also reach this rung on their own under saturation")
	chaos := flag.String("chaos", "", "seeded membership plan, e.g. kill:hot@8,join@10,drain:0@12 (-boards >1)")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint every stream every N epochs (0 = only under -chaos, then every epoch)")
	ckptDir := flag.String("ckpt-dir", "", "persist stream checkpoints under this directory (default: in-memory store)")
	seed := flag.Uint64("seed", 1, "seed for fleet generation and pre-training")
	traceOut := flag.String("trace-out", "", "write the run's event-time trace as Chrome trace-event JSON (load in Perfetto / chrome://tracing); byte-identical across same-seed reruns")
	metricsOut := flag.String("metrics-out", "", "write a text dump of the fleet metrics registry (counters, gauges, histograms)")
	epochCSV := flag.String("epoch-csv", "", "write the per-board epoch timeline as CSV")
	flag.Parse()

	variant, err := cli.ParseVariant(*model)
	if err != nil {
		fail(err)
	}
	cfgFor, err := cli.ParseProfile(*profile)
	if err != nil {
		fail(err)
	}
	mode, err := orin.ModeByWatts(*watts)
	if err != nil {
		fail(err)
	}
	if *lanes != 2 && *lanes != 4 {
		fail(fmt.Errorf("lanes must be 2 or 4, got %d", *lanes))
	}
	policy, err := stream.ParsePolicy(*policyName)
	if err != nil {
		fail(err)
	}
	if *consolidate && *boards <= 1 {
		fail(fmt.Errorf("-consolidate needs a fleet; use -boards >1"))
	}
	if *consolidate && !*migrate {
		fail(fmt.Errorf("-consolidate needs -migrate: drained boards reopen only by migration"))
	}
	if (*chaos != "" || *ckptEvery > 0 || *ckptDir != "") && *boards <= 1 {
		fail(fmt.Errorf("-chaos, -ckpt-every and -ckpt-dir need a fleet; use -boards >1"))
	}
	if (*groups > 0 || *admitName != "") && *boards <= 1 {
		fail(fmt.Errorf("-groups and -admit need a fleet; use -boards >1"))
	}
	if *admitName != "" && *admitName != "queue" && *admitName != "shed" {
		fail(fmt.Errorf("unknown admission policy %q: want queue or shed", *admitName))
	}
	if (*admitUtil > 0 || *admitQueue > 0) && *admitName == "" {
		fail(fmt.Errorf("-admit-util and -admit-queue tune the gate; enable it with -admit queue|shed"))
	}
	if *sharedScenes && *fpsAlt > 0 {
		fail(fmt.Errorf("-shared-scenes phase-shifts one schedule and cannot mix rates; drop -fps-alt"))
	}
	var plan *shard.FailurePlan
	if *chaos != "" {
		p, err := shard.ParsePlan(*chaos)
		if err != nil {
			fail(err)
		}
		plan = p
	}
	var ckpts serve.CheckpointStore
	if *ckptDir != "" {
		s, err := serve.NewFileCheckpoints(*ckptDir)
		if err != nil {
			fail(err)
		}
		ckpts = s
		if *ckptEvery <= 0 {
			*ckptEvery = 1
		}
	}
	forecaster, err := forecast.ByName(*forecastName)
	if err != nil {
		fail(err)
	}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}

	cfg := cfgFor(variant, *lanes)
	rng := tensor.NewRNG(*seed)
	m := ufld.MustNewModel(cfg, rng)
	if *weights != "" {
		f, err := os.Open(*weights)
		if err != nil {
			fail(err)
		}
		extras, err := nn.LoadParams(f, m.Params())
		f.Close()
		if err != nil {
			fail(err)
		}
		if err := m.ApplyBNStateExtras(extras); err != nil {
			fail(err)
		}
	} else {
		layout := carlane.Ego2
		if *lanes == 4 {
			layout = carlane.Quad4
		}
		src := carlane.Generate(cfg, carlane.SplitSpec{
			Name:    "ldserve/source-train",
			Layouts: []carlane.Layout{layout},
			Domains: []carlane.Domain{carlane.Sim},
			N:       80,
			Seed:    *seed + 1000,
		})
		tc := ufld.DefaultTrainConfig()
		tc.Epochs = *epochs
		fmt.Fprintln(os.Stderr, "pre-training on simulator source...")
		if _, err := ufld.TrainSource(m, src, tc, rng.Split()); err != nil {
			fail(err)
		}
	}

	var fleet []*stream.Source
	if *sharedScenes {
		fleet = serve.SyntheticFleetShared(cfg, *streams, *frames, *fps, *seed+2000)
	} else {
		rates := []float64{*fps}
		if *fpsAlt > 0 {
			rates = append(rates, *fpsAlt)
		}
		fleet = serve.SyntheticFleetRates(cfg, *streams, *frames, rates, *seed+2000)
	}
	scfg := serve.Config{
		Variant:    variant,
		Workers:    *workers,
		MaxBatch:   *maxBatch,
		Window:     time.Duration(*windowMs * float64(time.Millisecond)),
		AdaptEvery: *adaptEvery,
		AdaptBatch: *adaptBatch,
		Adapt:      adapt.DefaultConfig(),
		Mode:       mode,
		DeadlineMs: 1000.0 / *deadlineFPS,
		Policy:     policy,
		Backlog:    *backlog,
		Forecast:   forecaster,
		Quantized:  *quantized,
	}

	if *boards > 1 {
		placement, err := shard.ParsePlacement(*placementName)
		if err != nil {
			fail(err)
		}
		var adm *shard.Admission
		if *admitName != "" {
			adm = &shard.Admission{MaxUtil: *admitUtil, Queue: *admitQueue, Shed: *admitName == "shed"}
		}
		f, err := shard.New(m, shard.Config{
			Boards:          *boards,
			Board:           scfg,
			Placement:       placement,
			Governor:        *governName,
			BudgetW:         *powerBudget,
			EpochMs:         *epochMs,
			Migrate:         *migrate,
			Consolidate:     *consolidate,
			GroupSize:       *groups,
			Admission:       adm,
			Plan:            plan,
			CheckpointEvery: *ckptEvery,
			Checkpoints:     ckpts,
			Trace:           tr,
			Metrics:         reg,
		})
		if err != nil {
			fail(err)
		}
		rep := f.Run(fleet)
		printFleetReport(rep, *governName, placement.Name())
		writeObsOutputs(tr, reg, *traceOut, *metricsOut)
		if *epochCSV != "" {
			var rows []obs.EpochRow
			for _, br := range rep.Boards {
				rows = append(rows, epochRows(br.Board, br.Report.Epochs)...)
			}
			writeEpochCSV(*epochCSV, rows)
		}
		return
	}

	e := serve.New(m, scfg)
	// A single-board run traces as board 0 (local stream ids are the
	// fleet ids); nil trace/registry make this exactly the old path.
	rec := tr.Recorder(0, nil)
	bm := obs.NewBoardMetrics(reg)
	var rep serve.Report
	label := "batched engine"
	if *governName != "" {
		ctl, err := govern.ByName(*governName, *powerBudget)
		if err != nil {
			fail(err)
		}
		rep = e.RunObserved(fleet, *epochMs, ctl, rec, bm)
		label = fmt.Sprintf("governed engine (%s)", ctl.Name())
	} else {
		rep = e.RunObserved(fleet, 0, nil, rec, bm)
	}
	printReport(label, rep)
	if *governName != "" {
		printEpochTrace(rep)
	}
	writeObsOutputs(tr, reg, *traceOut, *metricsOut)
	if *epochCSV != "" {
		writeEpochCSV(*epochCSV, epochRows(0, rep.Epochs))
	}
}

// writeObsOutputs writes the trace and metrics files a run asked for;
// nil trace/registry (flags unset) write nothing.
func writeObsOutputs(tr *obs.Trace, reg *obs.Registry, traceOut, metricsOut string) {
	if tr != nil && traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fail(err)
		}
		if err := tr.WriteChromeJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if reg != nil && metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			fail(err)
		}
		if err := reg.WriteText(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}

// epochRows flattens one board's governed epoch trace into exporter
// rows.
func epochRows(board int, eps []serve.EpochStats) []obs.EpochRow {
	rows := make([]obs.EpochRow, 0, len(eps))
	for _, es := range eps {
		rows = append(rows, obs.EpochRow{
			Board:      board,
			Epoch:      es.Epoch,
			StartMs:    es.StartMs,
			EndMs:      es.EndMs,
			Mode:       es.Controls.Mode.Name,
			Policy:     es.Controls.Policy.String(),
			AdaptEvery: es.Controls.AdaptEvery,
			Quantized:  es.Controls.Quantized,
			Arrived:    es.Arrived,
			Forecast:   es.ForecastArrived,
			Served:     es.Served,
			Dropped:    es.FramesDropped,
			Skipped:    es.AdaptsSkipped,
			Queue:      es.QueueDepth,
			HitRate:    es.DeadlineHitRate,
			Util:       es.Utilization,
			EnergyMJ:   es.EnergyMJ,
		})
	}
	return rows
}

// writeEpochCSV writes the epoch timeline rows to path.
func writeEpochCSV(path string, rows []obs.EpochRow) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := obs.WriteEpochCSV(f, rows); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

// printFleetReport renders a sharded run: per-board totals, per-stream
// placement outcomes, and the migration trace.
func printFleetReport(rep shard.Report, govern, placement string) {
	if govern == "" {
		govern = "static"
	}
	fmt.Printf("sharded fleet (%d boards, %s placement, %s governors): %d frames, hit rate %s\n",
		len(rep.Boards), placement, govern, rep.Frames, metrics.FormatPct(rep.HitRate))
	tb := metrics.NewTable("board", "group", "streams", "frames", "hit rate", "p99 ms", "energy J",
		"mig in", "mig out", "epochs")
	for _, br := range rep.Boards {
		hit, p99 := "-", "-"
		if br.Report.Frames > 0 {
			hit = metrics.FormatPct(1 - br.Report.MissRate)
			p99 = fmt.Sprintf("%.1f", br.Report.P99LatencyMs)
		}
		life := "all"
		if br.JoinEpoch > 0 || br.LeaveEpoch >= 0 {
			end := "-"
			if br.LeaveEpoch >= 0 {
				end = fmt.Sprintf("%d", br.LeaveEpoch)
			}
			life = fmt.Sprintf("%d..%s", br.JoinEpoch, end)
		}
		tb.AddRow(fmt.Sprintf("#%d", br.Board), br.Group, len(br.Globals), br.Report.Frames,
			hit, p99,
			fmt.Sprintf("%.1f", br.Report.EnergyMJ/1e3),
			br.MigratedIn, br.MigratedOut, life)
	}
	if _, err := tb.WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	st := metrics.NewTable("stream", "frames", "miss rate", "adapt steps", "boards")
	for _, ss := range rep.Streams {
		st.AddRow(fmt.Sprintf("#%02d", ss.Stream), ss.Frames, metrics.FormatPct(ss.MissRate),
			ss.AdaptSteps, ss.Boards)
	}
	fmt.Println()
	if _, err := st.WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	for _, mg := range rep.Migrations {
		note := ""
		if mg.Drained {
			note = " (board drained)"
		}
		fmt.Printf("migration: epoch %d stream %d board %d -> %d [%s]%s\n", mg.Epoch, mg.Stream, mg.From, mg.To, mg.Reason, note)
	}
	for _, ev := range rep.Events {
		switch ev.Kind {
		case shard.Kill:
			fmt.Printf("event: epoch %d killed board %d — %d streams re-admitted (%d from checkpoints, %d cold), %d queued frames lost\n",
				ev.Epoch, ev.Board, ev.Streams, ev.Recovered, ev.Cold, ev.LostFrames)
		case shard.Drain:
			fmt.Printf("event: epoch %d draining board %d — %d streams evacuated live\n", ev.Epoch, ev.Board, ev.Streams)
		case shard.Join:
			fmt.Printf("event: epoch %d board %d joined the fleet\n", ev.Epoch, ev.Board)
		}
	}
	for _, ar := range rep.Admissions {
		if ar.Rejected {
			fmt.Printf("admission: epoch %d stream %d shed after %d epochs at the gate — %d frames lost\n",
				ar.Epoch, ar.Stream, ar.Waited, ar.DroppedFrames)
		} else {
			fmt.Printf("admission: epoch %d stream %d -> board %d (waited %d epochs, %d frames lost at the gate)\n",
				ar.Epoch, ar.Stream, ar.Board, ar.Waited, ar.DroppedFrames)
		}
	}
	if rep.Checkpoints > 0 || rep.CheckpointErrors > 0 {
		fmt.Printf("checkpoints: %d written, %d errors\n", rep.Checkpoints, rep.CheckpointErrors)
	}
	if rep.WallSeconds > 0 {
		fmt.Printf("coordinator: %d fleet epochs, %.1f steps/s, %s of wall time at the boundary\n",
			rep.FleetEpochs, float64(rep.FleetEpochs)/rep.WallSeconds,
			metrics.FormatPct(rep.CoordSeconds/rep.WallSeconds))
	}
	fmt.Printf("fleet energy: %.1f J total (%.1f J busy + %.1f J static), %.3f J/frame, %.1f worker-s stranded\n",
		rep.EnergyMJ/1e3, rep.BusyEnergyMJ/1e3, rep.IdleEnergyMJ/1e3, rep.JPerFrame, rep.StrandedMs/1e3)
}

// printReport renders one run as a per-stream table plus totals.
func printReport(label string, rep serve.Report) {
	fmt.Printf("%s: %d frames, %.1f frames/s host throughput (%s kernels), mean batch %.2f, %.2f s virtual\n",
		label, rep.Frames, rep.ThroughputFPS, tensor.Kernels(), rep.MeanBatch, rep.VirtualSeconds)
	tb := metrics.NewTable("stream", "frames", "online acc", "p50 ms", "p99 ms", "queue ms", "miss rate", "adapt steps", "dropped", "skipped")
	for _, sr := range rep.Streams {
		tb.AddRow(fmt.Sprintf("#%02d", sr.Stream), sr.Frames, metrics.FormatPct(sr.OnlineAccuracy),
			fmt.Sprintf("%.1f", sr.P50LatencyMs), fmt.Sprintf("%.1f", sr.P99LatencyMs),
			fmt.Sprintf("%.1f", sr.MeanQueueMs), metrics.FormatPct(sr.MissRate),
			sr.AdaptSteps, sr.FramesDropped, sr.AdaptsSkipped)
	}
	if _, err := tb.WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	fmt.Printf("fleet: accuracy %s, p50 %.1f ms, p99 %.1f ms, mean queue %.1f ms, miss rate %s",
		metrics.FormatPct(rep.OnlineAccuracy), rep.P50LatencyMs, rep.P99LatencyMs,
		rep.MeanQueueMs, metrics.FormatPct(rep.MissRate))
	if rep.FramesDropped > 0 || rep.AdaptsSkipped > 0 {
		fmt.Printf(", %d frames dropped, %d adapts skipped", rep.FramesDropped, rep.AdaptsSkipped)
	}
	fmt.Println()
	fmt.Printf("energy: %.1f J total (%.1f J busy + %.1f J static), %.3f J/frame\n",
		rep.EnergyMJ/1e3, rep.BusyEnergyMJ/1e3, rep.IdleEnergyMJ/1e3, rep.JPerFrame)
}

// printEpochTrace renders the governor's actuation trace, one line per
// control epoch.
func printEpochTrace(rep serve.Report) {
	fmt.Println("\nepoch trace:")
	tb := metrics.NewTable("epoch", "mode", "policy", "adapt", "prec", "arrived", "forecast", "served", "backlog",
		"hit rate", "util", "energy J")
	for _, es := range rep.Epochs {
		prec := "fp32"
		if es.Controls.Quantized {
			prec = "int8"
		}
		tb.AddRow(es.Epoch, es.Controls.Mode.Name, es.Controls.Policy.String(), es.Controls.AdaptEvery, prec,
			es.Arrived, fmt.Sprintf("%.1f", es.ForecastArrived), es.Served, es.QueueDepth,
			metrics.FormatPct(es.DeadlineHitRate),
			fmt.Sprintf("%.2f", es.Utilization), fmt.Sprintf("%.1f", es.EnergyMJ/1e3))
	}
	if _, err := tb.WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
