package serve

import (
	"fmt"
	"math"
	"testing"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/metrics"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// refWorker is the serving adaptation step as it was before it became
// adapt.Step: an all-trainable replica, every gradient zeroed, the
// full backward, the allocating losses. Kept as the reference the
// shared step is held to on the serving path (same stream state, same
// per-stream optimizer).
type refWorker struct {
	model    *ufld.Model
	bns      []*nn.BatchNorm2D
	bnParams []*nn.Param
	cfg      adapt.Config
	opt      nn.Optimizer
}

func newRefWorker(m *ufld.Model, cfg adapt.Config) *refWorker {
	r := m.Replica(tensor.NewRNG(1))
	return &refWorker{model: r, bns: r.BatchNorms(), bnParams: r.BNParams(), cfg: cfg, opt: adapt.NewOptimizer(cfg)}
}

func (w *refWorker) adapt(st *streamState, window []ufld.Sample) {
	idx := make([]int, len(window))
	for i := range idx {
		idx[i] = i
	}
	xa, _ := ufld.Batch(w.model.Cfg, window, idx)
	st.swapInto(w.bns)
	nn.ZeroGrads(w.model.Params())
	logits := w.model.Forward(xa, nn.Adapt)
	var grad *tensor.Tensor
	if w.cfg.Loss == adapt.Confidence {
		_, grad = nn.ConfidenceLoss(logits)
	} else {
		_, grad = nn.EntropyLoss(logits)
	}
	if st.steps >= w.cfg.WarmupSteps {
		w.model.Backward(grad)
		if w.cfg.ClipNorm > 0 {
			nn.ClipGradNorm(w.bnParams, w.cfg.ClipNorm)
		}
		w.opt.Step(w.bnParams, &st.opt)
	}
	st.steps++
	st.captureFrom(w.bns)
}

func sameStreamState(t *testing.T, step int, got, ref *streamState) {
	t.Helper()
	cmp := func(what string, a, b []float32) {
		t.Helper()
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("step %d: %s element %d is %v, reference %v", step, what, i, a[i], b[i])
			}
		}
	}
	for j := range got.bn {
		cmp("running mean", got.bn[j].Mean, ref.bn[j].Mean)
		cmp("running var", got.bn[j].Var, ref.bn[j].Var)
		cmp("gamma", got.bn[j].Gamma, ref.bn[j].Gamma)
		cmp("beta", got.bn[j].Beta, ref.bn[j].Beta)
	}
	cmp("optimizer m", got.opt.M, ref.opt.M)
	cmp("optimizer v", got.opt.V, ref.opt.V)
	if got.steps != ref.steps {
		t.Fatalf("step %d: %d lifetime steps, reference %d", step, got.steps, ref.steps)
	}
}

// TestWorkerStepMatchesFullBackward drives one stream's adaptation
// window by window (through warm-up) on an engine worker and on the
// reference, and holds the stream's whole portable state — BN
// statistics, γ/β, optimizer moments — to the reference's bits.
func TestWorkerStepMatchesFullBackward(t *testing.T) {
	m := testModel(31)
	for _, cfg := range []adapt.Config{
		adapt.DefaultConfig(),
		{LR: 1e-3, Momentum: 0.9, WarmupSteps: 1, Loss: adapt.Confidence, ClipNorm: 1},
	} {
		for _, ab := range []int{1, 3} {
			e := New(m, Config{Workers: 1, MaxBatch: 4, AdaptEvery: ab, AdaptBatch: ab, Adapt: cfg})
			wk, ref := e.newWorker(), newRefWorker(m, cfg)
			st, rst := newStreamState(m), newStreamState(m)
			samples := testSamples(m.Cfg, ab*(cfg.WarmupSteps+3), 17)
			for step := 0; step*ab < len(samples); step++ {
				window := samples[step*ab : (step+1)*ab]
				st.pending = append(st.pending[:0], window...)
				wk.adaptLocked(st)
				ref.adapt(rst, window)
				sameStreamState(t, step, st, rst)
			}
		}
	}
}

// TestEngineMatchesRunOnline pins a served stream to the paper's loop
// itself: one stream on one worker, with every batch exactly one
// adaptation window of b frames (MaxBatch = AdaptEvery = AdaptBatch = b,
// and every frame queued at once), must reproduce adapt.RunOnline at
// batch size b to the bit — online accuracy, step count, and every BN
// layer's running statistics and γ/β. Rows cover Adam at b 1 and 4 and
// the SGD/confidence variant.
func TestEngineMatchesRunOnline(t *testing.T) {
	m := testModel(32)
	ds := &ufld.Dataset{Samples: testSamples(m.Cfg, 48, 17)}
	sgd := adapt.Config{LR: 1e-3, Momentum: 0.9, WarmupSteps: 1, Loss: adapt.Confidence, ClipNorm: 1}
	for _, row := range []struct {
		name string
		b    int
		cfg  adapt.Config
	}{
		{"adam bs=1", 1, adapt.DefaultConfig()},
		{"adam bs=4", 4, adapt.DefaultConfig()},
		{"sgd+confidence bs=1", 1, sgd},
	} {
		ref := m.Clone(tensor.NewRNG(1))
		meth := adapt.NewLDBNAdapt(ref, row.cfg)
		want := adapt.RunOnline(ref, meth, ds, nil, row.b)

		e := New(m, Config{Workers: 1, MaxBatch: row.b, AdaptEvery: row.b, AdaptBatch: row.b, Adapt: row.cfg})
		s := e.NewSession([]*stream.Source{stream.NewSource(ds, 1e6)})
		for !s.Done() {
			s.RunEpoch(s.Now() + 1000)
		}
		sr := s.Finish().Streams[0]
		if math.Float64bits(sr.OnlineAccuracy) != math.Float64bits(want.OnlineAccuracy) {
			t.Errorf("%s: online accuracy %v, RunOnline %v", row.name, sr.OnlineAccuracy, want.OnlineAccuracy)
		}
		if sr.AdaptSteps != meth.Steps() || sr.Frames != want.Frames {
			t.Errorf("%s: %d steps over %d frames, RunOnline %d over %d", row.name, sr.AdaptSteps, sr.Frames, meth.Steps(), want.Frames)
		}
		st, differ := s.states[0], 0
		for j, b := range ref.BatchNorms() {
			for c := 0; c < b.C; c++ {
				if math.Float32bits(st.bn[j].Mean[c]) != math.Float32bits(b.RunningMean.Data[c]) ||
					math.Float32bits(st.bn[j].Var[c]) != math.Float32bits(b.RunningVar.Data[c]) ||
					math.Float32bits(st.bn[j].Gamma[c]) != math.Float32bits(b.Gamma.Value.Data[c]) ||
					math.Float32bits(st.bn[j].Beta[c]) != math.Float32bits(b.Beta.Value.Data[c]) {
					differ++
				}
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d BN channels differ from RunOnline", row.name, differ)
		}
	}
}

// serialPrices is the one-camera deployment priced as a serial
// recurrence: each frame starts at max(arrival, previous end) and costs
// frameMs, so its latency is its queue wait plus frameMs.
type serialPrices struct {
	lats, queues []float64
	maxDepth     int
	misses       int
	endMs        float64
}

func serialSchedule(src *stream.Source, frameMs, deadlineMs float64) serialPrices {
	var s serialPrices
	arrived := 0
	for i, fr := range src.Frames {
		arr := float64(fr.Arrival) / 1e6
		start := math.Max(arr, s.endMs)
		s.endMs = start + frameMs
		s.queues = append(s.queues, start-arr)
		s.lats = append(s.lats, start-arr+frameMs)
		if s.lats[i] > deadlineMs {
			s.misses++
		}
		for arrived < len(src.Frames) && float64(src.Frames[arrived].Arrival)/1e6 <= start {
			arrived++
		}
		s.maxDepth = max(s.maxDepth, arrived-i)
	}
	return s
}

// TestReportMatchesFullBackward pins the engine at one worker and one
// frame per batch to the paper's serial loop. Functionally the engine
// is then exactly "infer on the stream's state, score, adapt", which
// the reference replays stream by stream: every row holds per-stream
// online accuracy and step counts to the reference's bits. One-stream
// rows also hold every priced field to serialSchedule, with the frame
// priced as orin.EstimateFrame at bs 1 (or EstimateInferenceOnly with
// adaptation off).
func TestReportMatchesFullBackward(t *testing.T) {
	m := testModel(32)
	cfg := adapt.DefaultConfig()
	const frames = 8
	cost := ufld.DescribeModel(ufld.FullScale(resnet.R18, m.Cfg.Lanes))
	ref := newRefWorker(m, cfg)
	near := func(row, what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("%s: %s %.17g, serial recurrence %.17g", row, what, got, want)
		}
	}
	for _, streams := range []int{1, 2} {
		for _, fps := range []float64{30, 10} {
			fleet := SyntheticFleet(m.Cfg, streams, frames, fps, 41)
			for _, mode := range []orin.PowerMode{orin.Mode60W, orin.Mode30W, orin.Mode15W} {
				inferOnlyMs := 0.0
				for _, every := range []int{0, 1} {
					row := fmt.Sprintf("%d streams, %v FPS, %s, adapt every %d", streams, fps, mode.Name, every)
					rep := New(m, Config{Workers: 1, MaxBatch: 1, AdaptEvery: every, Adapt: cfg, Mode: mode}).Run(fleet)
					for si, src := range fleet {
						st := newStreamState(m)
						accW, points := 0.0, 0
						for _, fr := range src.Frames {
							st.swapInto(ref.bns)
							x := ufld.Images(m.Cfg, []ufld.Sample{fr.Sample}, []int{0})
							preds := ufld.Decode(m.Cfg, ref.model.ForwardInfer(x), 1)
							acc, pts := stream.ScoreSample(m.Cfg, preds[0], fr.Sample)
							accW += acc * float64(pts)
							points += pts
							if every > 0 {
								ref.adapt(st, []ufld.Sample{fr.Sample})
							}
						}
						sr := rep.Streams[si]
						if want := accW / float64(points); math.Float64bits(sr.OnlineAccuracy) != math.Float64bits(want) {
							t.Fatalf("%s: stream %d online accuracy %v, reference %v", row, si, sr.OnlineAccuracy, want)
						}
						if sr.AdaptSteps != st.steps || sr.Frames != frames {
							t.Fatalf("%s: stream %d ran %d steps over %d frames, reference %d over %d", row, si, sr.AdaptSteps, sr.Frames, st.steps, frames)
						}
					}
					// Fig. 3's verdicts: R-18 at 15 W misses every 30 FPS
					// deadline, adapting or not.
					if mode.Watts == 15 && rep.MissRate != 1 {
						t.Fatalf("%s: miss rate %v, want 1", row, rep.MissRate)
					}
					if streams > 1 {
						continue
					}
					frameMs := orin.EstimateInferenceOnly("R-18", cost, mode).TotalMs
					if every > 0 {
						frameMs = orin.EstimateFrame("R-18", cost, mode, 1).TotalMs
					}
					s := serialSchedule(fleet[0], frameMs, orin.Deadline30FPS)
					sr := rep.Streams[0]
					near(row, "mean latency", sr.MeanLatencyMs, metrics.Mean(s.lats))
					near(row, "p50 latency", sr.P50LatencyMs, metrics.Percentile(s.lats, 50))
					near(row, "p99 latency", sr.P99LatencyMs, metrics.Percentile(s.lats, 99))
					near(row, "max latency", sr.MaxLatencyMs, metrics.Percentile(s.lats, 100))
					near(row, "mean queue", sr.MeanQueueMs, metrics.Mean(s.queues))
					near(row, "max queue", sr.MaxQueueMs, metrics.Percentile(s.queues, 100))
					near(row, "virtual seconds", rep.VirtualSeconds, s.endMs/1e3)
					busyMJ, idleMJ := float64(mode.Watts)*frameMs*frames, mode.IdleWatts*s.endMs
					near(row, "busy energy", rep.BusyEnergyMJ, busyMJ)
					near(row, "idle energy", rep.IdleEnergyMJ, idleMJ)
					near(row, "total energy", rep.EnergyMJ, busyMJ+idleMJ)
					if sr.MaxQueueDepth != s.maxDepth || sr.MissRate != float64(s.misses)/frames {
						t.Fatalf("%s: depth %d, miss rate %v; serial recurrence %d, %v", row, sr.MaxQueueDepth, sr.MissRate, s.maxDepth, float64(s.misses)/frames)
					}
					// The paper's headline: R-18 at 60 W adapts on every frame
					// inside the 30 FPS budget.
					if mode.Watts == 60 && fps == 30 && every == 1 && sr.MissRate != 0 {
						t.Fatalf("%s: miss rate %v, want 0", row, sr.MissRate)
					}
					if every == 0 {
						inferOnlyMs = sr.MeanLatencyMs
					} else if inferOnlyMs >= sr.MeanLatencyMs {
						t.Fatalf("%s: inference-only %.3f ms is not cheaper than adapting %.3f ms", row, inferOnlyMs, sr.MeanLatencyMs)
					}
				}
			}
		}
	}
}
