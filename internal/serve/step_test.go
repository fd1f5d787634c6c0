package serve

import (
	"math"
	"testing"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/nn"
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
}

func newRefWorker(m *ufld.Model, cfg adapt.Config) *refWorker {
	r := m.Replica(tensor.NewRNG(1))
	return &refWorker{model: r, bns: r.BatchNorms(), bnParams: r.BNParams(), cfg: cfg}
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
		st.opt.Step(w.bnParams)
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
	cmp("optimizer m", got.opt.m, ref.opt.m)
	cmp("optimizer v", got.opt.v, ref.opt.v)
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
			st, rst := newStreamState(m, cfg), newStreamState(m, cfg)
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

// TestReportMatchesFullBackward pins the functional half of a Report —
// per-stream online accuracy and step counts — to the reference: at
// one worker, one frame per batch and a step after every frame, the
// engine is exactly "infer on the stream's state, score, adapt", which
// the reference replays stream by stream.
func TestReportMatchesFullBackward(t *testing.T) {
	m := testModel(32)
	cfg := adapt.DefaultConfig()
	const streams, frames = 2, 8
	fleet := SyntheticFleet(m.Cfg, streams, frames, 30, 41)
	rep := New(m, Config{Workers: 1, MaxBatch: 1, AdaptEvery: 1, Adapt: cfg}).Run(fleet)

	ref := newRefWorker(m, cfg)
	for si, src := range fleet {
		st := newStreamState(m, cfg)
		accW, points := 0.0, 0
		for _, fr := range src.Frames {
			st.swapInto(ref.bns)
			x := ufld.Images(m.Cfg, []ufld.Sample{fr.Sample}, []int{0})
			preds := ufld.Decode(m.Cfg, ref.model.ForwardInfer(x), 1)
			acc, pts := stream.ScoreSample(m.Cfg, preds[0], fr.Sample)
			accW += acc * float64(pts)
			points += pts
			ref.adapt(st, []ufld.Sample{fr.Sample})
		}
		sr := rep.Streams[si]
		if want := accW / float64(points); math.Float64bits(sr.OnlineAccuracy) != math.Float64bits(want) {
			t.Fatalf("stream %d: online accuracy %v, reference %v", si, sr.OnlineAccuracy, want)
		}
		if sr.AdaptSteps != st.steps || sr.Frames != frames {
			t.Fatalf("stream %d: %d steps over %d frames, reference %d over %d", si, sr.AdaptSteps, sr.Frames, st.steps, frames)
		}
	}
}
