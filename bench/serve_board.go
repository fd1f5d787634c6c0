package main

import (
	"math"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

const sbEpochMs = 100.0

// serveBoard is one board: a serve.Session stepped by the harness in
// 100 ms control epochs over a small 30 FPS fleet at static 60 W,
// DropNone, observability off. Closed loop in host time: the next epoch
// is stepped when the previous one has drained.
type serveBoard struct {
	cfg    ufld.Config
	source *ufld.Model
	fleet  []*stream.Source
	engine *serve.Engine
	first  *serve.Session // built in set-up, consumed by the first block
	frames int            // produced by the fleet

	reports []serve.Report // of the first two blocks
}

func sbConfig(workers int) serve.Config {
	return serve.Config{
		Workers: workers, MaxBatch: 8, AdaptEvery: 4,
		Adapt: adapt.DefaultConfig(), Mode: orin.Mode60W, Policy: stream.DropNone,
	}
}

func (w *serveBoard) setups(sz sizes) int { return sz.setups }

func (w *serveBoard) setup(e *env) {
	sz := e.sz
	w.cfg = ufld.Tiny(resnet.R18, 2)
	w.source = trainSourceModel(w.cfg, sz.tinyTrain)
	perStream := int(math.Round(30 * sbEpochMs / 1000 * float64(sz.sbWarm+sz.sbEpochs)))
	w.fleet = serve.SyntheticFleet(w.cfg, sz.sbStreams, perStream, 30, e.seed*1000+7)
	w.frames = sz.sbStreams * perStream
	w.engine = serve.New(w.source, sbConfig(e.workers))
	w.first = w.engine.NewSession(w.fleet)
}

func (w *serveBoard) teardown() {
	if w.first != nil {
		w.first.Finish()
		w.first = nil
	}
}

func (w *serveBoard) spansPerBlock(e *env) int { return 4 * (e.sz.sbWarm + e.sz.sbEpochs + 8) }

func (w *serveBoard) timedRoot() string { return "bench.epoch" }

func (w *serveBoard) block(e *env, tr *tracer) *blockOut {
	sz := e.sz
	out := newBlockOut(sz.sbEpochs)
	s := w.first
	w.first = nil
	if s == nil {
		t0 := time.Now()
		s = w.engine.NewSession(w.fleet)
		out.layerMs["serve.new_session_ms"] = []float64{float64(time.Since(t0)) / 1e6}
	}
	end := 0.0
	for i := 0; i < sz.sbWarm; i++ {
		end += sbEpochMs
		tr.nextOp()
		root := tr.begin("bench.warmup")
		s.RunEpoch(end)
		tr.end(root)
	}
	heap0 := liveHeapMB()
	mark := memMark()
	utilSum := 0.0
	for i := 0; i < sz.sbEpochs; i++ {
		end += sbEpochMs
		out.calMs = append(out.calMs, e.cal.sample())
		tr.nextOp()
		root := tr.begin("bench.epoch")

		// Planning the epoch without executing it is the board's
		// control-plane share of the epoch.
		sp := tr.begin("serve.Probe")
		t0 := time.Now()
		s.Probe(s.Controls(), sbEpochMs)
		probeNs := time.Since(t0)
		tr.end(sp)

		sp = tr.begin("serve.RunEpoch")
		t1 := time.Now()
		es := s.RunEpoch(end)
		epochNs := time.Since(t1)
		tr.end(sp)

		tr.end(root)
		out.attempted++
		utilSum += es.Utilization
		out.op(float64(epochNs)/1e6, es.Served, float64(probeNs)/1e3/float64(sz.sbStreams))
	}
	out.calMs = append(out.calMs, e.cal.sample())
	out.mallocs = memMark() - mark
	out.heapMB = liveHeapMB()
	out.layer["serve.heap_growth_kb"] = []float64{(out.heapMB - heap0) * 1024}

	// Drain what the last timed epoch left queued, so that every frame
	// the cameras produced is accounted for.
	for guard := 0; !s.Done() && guard < 64; guard++ {
		end += sbEpochMs
		tr.nextOp()
		root := tr.begin("bench.drain")
		s.RunEpoch(end)
		tr.end(root)
	}
	tr.nextOp()
	root := tr.begin("bench.finish")
	t0 := time.Now()
	rep := s.Finish()
	out.layerMs["serve.finish_ms"] = []float64{float64(time.Since(t0)) / 1e6}
	tr.end(root)
	if len(w.reports) < 2 {
		w.reports = append(w.reports, rep)
	}

	if rep.Frames+rep.FramesDropped != w.frames {
		out.fail("conservation: served %d + dropped %d != produced %d", rep.Frames, rep.FramesDropped, w.frames)
	}
	steps := 0
	for _, sr := range rep.Streams {
		steps += sr.AdaptSteps
	}
	out.exact["produced_frames"] = float64(w.frames)
	out.exact["served_frames"] = float64(rep.Frames)
	out.exact["timed_frames"] = float64(out.frames())
	out.exact["batches"] = float64(rep.Batches)
	out.exact["adapt_steps"] = float64(steps)
	out.exact["deadline_hit_rate"] = 1 - rep.MissRate
	out.exact["energy_j_per_frame"] = rep.JPerFrame
	// Which worker's adaptation step a stream's next inference sees is
	// up to the host scheduler once a board has two workers (ROADMAP
	// item 3), so accuracy is reported but only held exact at one.
	out.accuracy = rep.OnlineAccuracy
	if e.workers == 1 {
		out.exact["online_accuracy"] = rep.OnlineAccuracy
	}
	out.exact["priced_p99_ms"] = rep.P99LatencyMs
	out.exact["mean_queue_ms"] = rep.MeanQueueMs
	out.layer["serve.util"] = []float64{utilSum / float64(sz.sbEpochs)}
	return out
}

func (w *serveBoard) layers(e *env, plain, traced []*blockOut, tr *tracer, out map[string]float64) {
	sz := e.sz
	all := append(append([]*blockOut(nil), plain...), traced...)
	timing := func(key string) []float64 {
		return pool(all, func(b *blockOut) []float64 { return b.layerMs[key] })
	}
	value := func(key string) []float64 {
		return pool(all, func(b *blockOut) []float64 { return b.layer[key] })
	}
	epochs := pool(all, opMsOf)
	rep := w.reports[0]
	out["serve.epoch_ms_p50"] = median(epochs)
	out["serve.epoch_ms_p95"], _ = tail(epochs)
	out["serve.realtime_factor"] = median(epochs) / sbEpochMs
	perFrame := median(pool(all, func(b *blockOut) []float64 { return msPerFrame(b.opMs, b.opFrames) }))
	out["serve.ms_per_frame"] = perFrame
	out["serve.mean_batch"] = rep.MeanBatch
	out["serve.batches"] = float64(rep.Batches)
	out["serve.adapt_steps"] = plain[0].exact["adapt_steps"]
	out["serve.allocs_per_epoch"] = median(perBlock(all, func(b *blockOut) float64 { return float64(b.mallocs) / float64(sz.sbEpochs) }))
	out["serve.heap_growth_kb_per_epoch"] = median(value("serve.heap_growth_kb")) / float64(sz.sbEpochs)
	out["serve.finish_ms"] = median(timing("serve.finish_ms"))
	out["serve.new_session_ms"] = median(timing("serve.new_session_ms"))
	out["serve.util_mean"] = median(value("serve.util"))
	out["serve.queue_ms_mean"] = rep.MeanQueueMs
	out["serve.priced_p99_ms"] = rep.P99LatencyMs
	out["serve.probe_us"] = 1e3 * median(tr.under("bench.epoch").durations("serve.Probe"))

	// The same engine and fleet served in one shot: no epoch barrier.
	oneshot := e.timeCalls(1, func() { w.engine.Run(w.fleet) }) / float64(w.frames)
	out["serve.oneshot_ms_per_frame"] = oneshot
	out["serve.barrier_ratio"] = perFrame / oneshot

	probeModel(e, w.cfg, w.source, w.fleetDataset(), out)
	probeAdapt(e, w.source, w.fleetDataset(), out)
	// What the bare model calls would cost for the same work: a batched
	// forward at the mean batch size per frame, plus one batch-1
	// adaptation step every AdaptEvery frames.
	nb := int(math.Round(rep.MeanBatch))
	if nb < 1 {
		nb = 1
	}
	ds := w.fleetDataset()
	idx := make([]int, nb)
	for i := range idx {
		idx[i] = i % ds.Len()
	}
	m := w.source.Clone(tensor.NewRNG(1))
	xb := ufld.Images(w.cfg, ds.Samples, idx)
	inferPerFrame := e.timeCalls(3*sz.probeReps, func() { m.ForwardInfer(xb) }) / float64(nb)
	meth := adapt.NewLDBNAdapt(m, adapt.DefaultConfig())
	x1 := ufld.Images(w.cfg, ds.Samples, idx[:1])
	for i := 0; i < adapt.DefaultConfig().WarmupSteps; i++ {
		meth.Adapt(x1)
	}
	step := e.timeCalls(3*sz.probeReps, func() { meth.Adapt(x1) })
	out["adapt.step_ms_p50"] = step
	out["serve.bare_ratio"] = perFrame / (inferPerFrame + step/float64(sbConfig(e.workers).AdaptEvery))
}

// fleetDataset views stream 0's frames as a dataset for the probes.
func (w *serveBoard) fleetDataset() *ufld.Dataset {
	ds := &ufld.Dataset{Name: "bench/stream-0"}
	for _, fr := range w.fleet[0].Frames {
		ds.Samples = append(ds.Samples, fr.Sample)
	}
	return ds
}
