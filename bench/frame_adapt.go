package main

import (
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// frameAdapt is the paper's loop on one camera: every frame is
// inferred, decoded and scored, then consumed by one LD-BN-ADAPT step
// at batch size 1. Closed loop, one client.
type frameAdapt struct {
	cfg    ufld.Config
	source *ufld.Model   // source-trained; blocks clone it
	stream *ufld.Dataset // target frames, warm-up first
	val    *ufld.Dataset // labeled target validation split
	// priced is the Orin cost of one such frame on the deployed
	// full-scale R-18 at 60 W — the paper's Fig. 3 point.
	priced orin.Estimate

	frozenAcc float64
	finalAcc  []float64 // per block, evaluated on the first two
	blocks    int
}

func (w *frameAdapt) setups(sz sizes) int { return sz.setups }

func (w *frameAdapt) setup(e *env) {
	w.cfg = e.sz.faProfile(resnet.R18, 2)
	w.source = trainSourceModel(w.cfg, e.sz.faTrain)
	w.stream = targetSplit(w.cfg, "bench/target-stream", e.sz.faWarm+e.sz.faFrames, e.seed*1000+2)
	w.val = targetSplit(w.cfg, "bench/target-val", e.sz.faVal, e.seed*1000+3)
	w.priced = orin.EstimateFrame("R-18", ufld.DescribeModel(ufld.FullScale(resnet.R18, 2)), orin.Mode60W, 1)
}

func (w *frameAdapt) teardown() {}

func (w *frameAdapt) spansPerBlock(e *env) int { return 7 * (e.sz.faWarm + e.sz.faFrames) }

func (w *frameAdapt) timedRoot() string { return "bench.frame" }

func (w *frameAdapt) block(e *env, tr *tracer) *blockOut {
	sz := e.sz
	out := newBlockOut(sz.faFrames)
	if w.blocks == 0 {
		// What the source model scores before any adaptation, on a clone
		// of its own so the evaluation's caches are not in this block's
		// live heap.
		w.frozenAcc = ufld.Evaluate(w.source.Clone(tensor.NewRNG(1)), w.val, 8).Accuracy
	}
	m := w.source.Clone(tensor.NewRNG(1))
	meth := adapt.NewLDBNAdapt(m, adapt.DefaultConfig())
	idx := []int{0}
	accW, points, hits := 0.0, 0, 0
	var mark uint64
	for i := 0; i < sz.faWarm+sz.faFrames; i++ {
		timed := i >= sz.faWarm
		if i == sz.faWarm {
			mark = memMark()
		}
		if timed {
			out.calMs = append(out.calMs, e.cal.sample())
		}
		idx[0] = i
		tr.nextOp()
		t0 := time.Now()
		rootName := "bench.frame"
		if !timed {
			rootName = "bench.warmup"
		}
		root := tr.begin(rootName)

		s := tr.begin("ufld.Images")
		x := ufld.Images(w.cfg, w.stream.Samples, idx)
		tr.end(s)

		s = tr.begin("ufld.ForwardInfer")
		t1 := time.Now()
		logits := m.ForwardInfer(x)
		inferNs := time.Since(t1)
		tr.end(s)

		s = tr.begin("ufld.Decode")
		preds := ufld.Decode(w.cfg, logits, 1)
		tr.end(s)

		s = tr.begin("bench.allFinite")
		finite := allFinite(logits)
		tr.end(s)

		s = tr.begin("stream.ScoreSample")
		acc, pts := stream.ScoreSample(w.cfg, preds[0], w.stream.Samples[i])
		tr.end(s)

		s = tr.begin("adapt.Adapt")
		t2 := time.Now()
		meth.Adapt(x)
		adaptNs := time.Since(t2)
		tr.end(s)

		tr.end(root)
		frameNs := time.Since(t0)
		// Accuracy needs no steady state: every frame of the block counts.
		accW += acc * float64(pts)
		points += pts
		if !timed {
			continue
		}
		out.op(float64(frameNs)/1e6, 1, float64(frameNs-inferNs-adaptNs)/1e3)
		out.attempted++
		if !finite {
			out.fail("frame %d: non-finite logits", i)
		}
		if w.priced.Meets(orin.Deadline30FPS) {
			hits++
		}
	}
	out.calMs = append(out.calMs, e.cal.sample())
	out.mallocs = memMark() - mark
	out.heapMB = liveHeapMB()

	out.exact["frames"] = float64(sz.faFrames)
	out.exact["produced_frames"] = float64(sz.faFrames)
	out.exact["served_frames"] = float64(sz.faFrames)
	out.exact["adapt_steps"] = float64(meth.Steps())
	out.exact["deadline_hit_rate"] = float64(hits) / float64(sz.faFrames)
	out.exact["energy_j_per_frame"] = w.priced.EnergyMJ / 1e3
	if points > 0 {
		out.accuracy = accW / float64(points)
	}
	out.exact["online_accuracy"] = out.accuracy
	// The accuracy the adapted model ends with is evaluated on the first
	// two blocks only (it costs a validation pass): once for the metric
	// and the gain check, once to see it repeat.
	if w.blocks < 2 {
		final := ufld.Evaluate(m, w.val, 8).Accuracy
		out.exact["final_accuracy"] = final
		w.finalAcc = append(w.finalAcc, final)
		if sz.faCheckGain && final <= w.frozenAcc {
			out.fail("adaptation did not help: final accuracy %.4f <= frozen %.4f", final, w.frozenAcc)
		}
	}
	w.blocks++
	return out
}

func (w *frameAdapt) layers(e *env, plain, traced []*blockOut, tr *tracer, out map[string]float64) {
	timed := tr.under("bench.frame")
	frame := median(timed.durations("bench.frame"))
	infer := timed.durations("ufld.ForwardInfer")
	step := timed.durations("adapt.Adapt")
	out["ufld.infer_ms_p50"] = median(infer)
	out["ufld.infer_ms_p95"], _ = tail(infer)
	out["ufld.images_us"] = 1e3 * median(timed.durations("ufld.Images"))
	out["ufld.decode_us"] = 1e3 * median(timed.durations("ufld.Decode"))
	out["stream.score_us"] = 1e3 * median(timed.durations("stream.ScoreSample"))
	out["adapt.step_ms_p50"] = median(step)
	out["adapt.step_ms_p95"], _ = tail(step)
	out["adapt.share"] = median(timed.selfOf("adapt.Adapt")) / frame
	out["adapt.frozen_accuracy"] = w.frozenAcc
	out["adapt.final_accuracy"] = w.finalAcc[0]
	out["orin.frame_ms_30w"] = orin.EstimateFrame("R-18", ufld.DescribeModel(ufld.FullScale(resnet.R18, 2)), orin.Mode30W, 1).TotalMs

	probePar(e, w.cfg, out)
	probeModel(e, w.cfg, w.source, w.stream, out)
	probeAdapt(e, w.source, w.stream, out)
	probeCarlane(e, w.cfg, out)
}
