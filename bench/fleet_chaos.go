package main

import (
	"bytes"
	"math"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/obs"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/shard"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/ufld"
)

// fleetChaos is the whole system in one call: shard.Fleet.Run over
// governed single-worker boards at 30 W with migration, consolidation,
// per-epoch checkpoints and a scripted board kill and join. One block
// is one fleet run; it is the only workload in which every layer runs
// together.
type fleetChaos struct {
	cfg     ufld.Config
	source  *ufld.Model
	fleet   []*stream.Source
	plan    *shard.FailurePlan
	reports []shard.Report // of the first two blocks
}

func (w *fleetChaos) config(e *env, tr *obs.Trace, reg *obs.Registry) shard.Config {
	return shard.Config{
		Boards: e.sz.fcBoards,
		Board: serve.Config{
			Workers: 1, MaxBatch: 8, AdaptEvery: 4,
			Adapt: adapt.DefaultConfig(), Mode: orin.Mode30W,
		},
		Governor: "predictive", EpochMs: 250,
		Migrate: true, Consolidate: true, CheckpointEvery: 1,
		Plan: w.plan, Trace: tr, Metrics: reg,
	}
}

func (w *fleetChaos) setups(sz sizes) int { return sz.setups }

func (w *fleetChaos) setup(e *env) {
	sz := e.sz
	w.cfg = ufld.Tiny(resnet.R18, 2)
	w.source = trainSourceModel(w.cfg, sz.tinyTrain)
	w.fleet = serve.SyntheticFleetShared(w.cfg, sz.fcStreams, sz.fcFrames, sz.fcFPS, e.seed*1000+13)
	plan, err := shard.ParsePlan(sz.fcPlan)
	if err != nil {
		panic(err) // the plan is a constant of this file's sizes
	}
	w.plan = plan
}

func (w *fleetChaos) teardown() {}

func (w *fleetChaos) spansPerBlock(e *env) int { return 4 }

func (w *fleetChaos) timedRoot() string { return "bench.run" }

// run makes one fleet run and times it from outside.
func (w *fleetChaos) run(e *env, tr *tracer, otr *obs.Trace, reg *obs.Registry) (shard.Report, float64, error) {
	fl, err := shard.New(w.source, w.config(e, otr, reg))
	if err != nil {
		return shard.Report{}, 0, err
	}
	tr.nextOp()
	root := tr.begin("bench.run")
	sp := tr.begin("shard.Fleet.Run")
	t0 := time.Now()
	rep := fl.Run(w.fleet)
	wall := time.Since(t0).Seconds()
	tr.end(sp)
	tr.end(root)
	return rep, wall, nil
}

func (w *fleetChaos) block(e *env, tr *tracer) *blockOut {
	out := newBlockOut(1)
	produced := e.sz.fcStreams * e.sz.fcFrames
	out.calMs = append(out.calMs, e.cal.steady(5))
	mark := memMark()
	rep, wall, err := w.run(e, tr, nil, nil)
	out.mallocs = memMark() - mark
	out.calMs = append(out.calMs, e.cal.steady(5))
	if err != nil {
		out.attempted = 1
		out.fail("fleet: %v", err)
		out.op(1, 1, 1)
		return out
	}
	out.heapMB = liveHeapMB() // rep still holds every board's report
	out.op(1e3*wall, rep.Frames, 1e6*rep.CoordSeconds/float64(e.sz.fcStreams*rep.FleetEpochs))
	out.attempted = rep.FleetEpochs
	if len(w.reports) < 2 {
		w.reports = append(w.reports, rep)
	}

	if got := rep.Frames + rep.FramesDropped + rep.LostFrames + rep.AdmitDropped; got != produced {
		out.fail("conservation: served %d + dropped %d + lost %d + admit-dropped %d != produced %d",
			rep.Frames, rep.FramesDropped, rep.LostFrames, rep.AdmitDropped, produced)
	}
	if rep.CheckpointErrors > 0 {
		out.fail("%d checkpoint errors", rep.CheckpointErrors)
	}
	if len(rep.Events) != len(w.plan.Events) {
		out.fail("%d of %d planned membership events fired", len(rep.Events), len(w.plan.Events))
	}
	accW, ctlChanges, int8Epochs := 0.0, 0, 0
	var absErr []float64
	for _, br := range rep.Boards {
		accW += br.Report.OnlineAccuracy * float64(br.Report.Frames)
		eps := br.Report.Epochs
		for i, es := range eps {
			if es.Controls.Quantized {
				int8Epochs++
			}
			if i == 0 {
				continue
			}
			prev := eps[i-1]
			if es.Controls != prev.Controls {
				ctlChanges++
			}
			if es.Epoch != prev.Epoch+1 {
				continue // the board slept in between
			}
			for li := 0; li < len(prev.StreamForecasts) && li < len(es.StreamArrivals); li++ {
				absErr = append(absErr, math.Abs(prev.StreamForecasts[li]-float64(es.StreamArrivals[li])))
			}
		}
	}
	// Frame-weighted over boards: the fleet report carries no point
	// counts, so this approximates the point-weighted figure.
	out.accuracy = accW / float64(rep.Frames)

	out.exact["produced_frames"] = float64(produced)
	out.exact["served_frames"] = float64(rep.Frames)
	out.exact["dropped_frames"] = float64(rep.FramesDropped)
	out.exact["lost_frames"] = float64(rep.LostFrames)
	out.exact["fleet_epochs"] = float64(rep.FleetEpochs)
	out.exact["migrations"] = float64(len(rep.Migrations))
	out.exact["checkpoints"] = float64(rep.Checkpoints)
	out.exact["events"] = float64(len(rep.Events))
	out.exact["ctl_changes"] = float64(ctlChanges)
	out.exact["int8_epochs"] = float64(int8Epochs)
	out.exact["forecast_mae"] = mean(absErr)
	out.exact["deadline_hit_rate"] = rep.HitRate
	out.exact["energy_j_per_frame"] = rep.JPerFrame
	out.exact["online_accuracy"] = out.accuracy
	out.exact["stranded_ms"] = rep.StrandedMs
	out.layer["shard.coord_share"] = []float64{rep.CoordSeconds / rep.WallSeconds}
	out.layerMs["shard.coord_ms_per_epoch"] = []float64{1e3 * rep.CoordSeconds / float64(rep.FleetEpochs)}
	return out
}

func (w *fleetChaos) layers(e *env, plain, traced []*blockOut, tr *tracer, out map[string]float64) {
	all := append(append([]*blockOut(nil), plain...), traced...)
	ex := plain[0].exact
	wall := median(pool(all, opMsOf)) / 1e3
	out["shard.run_s"] = wall
	out["shard.steps_per_s"] = ex["fleet_epochs"] / wall
	// Both coordinator figures are reported by the program (Report.CoordSeconds).
	out["shard.coord_share"] = median(pool(all, func(b *blockOut) []float64 { return b.layer["shard.coord_share"] }))
	out["shard.coord_ms_per_epoch"] = median(pool(all, func(b *blockOut) []float64 { return b.layerMs["shard.coord_ms_per_epoch"] }))
	out["shard.migrations"] = ex["migrations"]
	out["shard.checkpoints"] = ex["checkpoints"]
	out["shard.ckpt_errors"] = float64(w.reports[0].CheckpointErrors)
	out["shard.lost_frames"] = ex["lost_frames"]
	out["shard.events"] = ex["events"]
	out["shard.stranded_ms"] = ex["stranded_ms"]
	out["govern.ctl_changes"] = ex["ctl_changes"]
	out["govern.int8_epochs"] = ex["int8_epochs"]
	out["forecast.mae"] = ex["forecast_mae"]

	// The same fleet run twice more with the event-time trace and the
	// metrics registry on: what observability costs, and whether its
	// export still repeats byte for byte.
	var exports [2][]byte
	var onWall [2]float64
	for i := range exports {
		otr := obs.NewTrace()
		before := e.cal.steady(5)
		_, wall, err := w.run(e, nil, otr, obs.NewRegistry())
		if err != nil {
			e.failf("fleet with observability on: %v", err)
			return
		}
		onWall[i] = wall * speed(before, e.cal.steady(5))
		var buf bytes.Buffer
		t0 := time.Now()
		if err := otr.WriteChromeJSON(&buf); err != nil {
			e.failf("exporting the fleet trace: %v", err)
			return
		}
		out["obs.export_ms"] = float64(time.Since(t0)) / 1e6
		out["obs.events"] = float64(len(otr.Events()))
		exports[i] = buf.Bytes()
	}
	out["obs.on_overhead_share"] = math.Min(onWall[0], onWall[1])/wall - 1
	out["obs.trace_bytes"] = float64(len(exports[0]))
	if bytes.Equal(exports[0], exports[1]) {
		out["obs.bytewise_repeat"] = 1
	} else {
		e.failf("the fleet's event-time trace differs between two runs of one seed")
	}
}
