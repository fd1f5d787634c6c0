package nn

import (
	"bytes"
	"math"
	"testing"

	"ldbnadapt/internal/tensor"
)

func TestModeString(t *testing.T) {
	if Train.String() != "train" || Eval.String() != "eval" || Adapt.String() != "adapt" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must still render")
	}
}

func TestParamCountAndFilter(t *testing.T) {
	rng := tensor.NewRNG(1)
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	seq := NewSequential("net",
		NewConv2D("c1", 2, 4, g, false, rng), // 4*2*3*3 = 72
		NewBatchNorm2D("bn1", 4),             // 4+4 = 8
	)
	if got := ParamCount(seq.Params()); got != 80 {
		t.Fatalf("ParamCount = %d, want 80", got)
	}
	bnOnly := FilterParams(seq.Params(), func(p *Param) bool {
		return p.Name == "bn1.gamma" || p.Name == "bn1.beta"
	})
	if ParamCount(bnOnly) != 8 {
		t.Fatal("FilterParams wrong")
	}
}

func TestBatchNormTrainNormalizes(t *testing.T) {
	rng := tensor.NewRNG(2)
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(4, 2, 5, 5)
	rng.FillNormal(x, 3.0, 2.5) // far from standard
	y := bn.Forward(x, Train)
	// With γ=1, β=0 each channel of y must be ~N(0,1).
	for c := 0; c < 2; c++ {
		var vals []float32
		for n := 0; n < 4; n++ {
			base := (n*2 + c) * 25
			vals = append(vals, y.Data[base:base+25]...)
		}
		ch := tensor.FromSlice(vals, len(vals))
		mean, std := ch.MeanStd()
		if math.Abs(mean) > 1e-4 || math.Abs(std-1) > 1e-3 {
			t.Fatalf("channel %d not normalized: mean=%v std=%v", c, mean, std)
		}
	}
}

func TestBatchNormAdaptEqualsTrainForward(t *testing.T) {
	rng := tensor.NewRNG(3)
	a := NewBatchNorm2D("bn", 3)
	b := NewBatchNorm2D("bn", 3)
	b.AdaptMomentum = 1 // EMA fully replaced by batch stats = TENT/Train behaviour
	x := tensor.New(2, 3, 4, 4)
	rng.FillNormal(x, -1, 4)
	ya := a.Forward(x, Train)
	yb := b.Forward(x, Adapt)
	if !ya.AllClose(yb, 1e-6) {
		t.Fatal("Adapt forward must normalize by batch stats exactly like Train")
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	mean := tensor.FromSlice([]float32{2}, 1)
	varc := tensor.FromSlice([]float32{4}, 1)
	bn.SetRunningStats(mean, varc)
	x := tensor.FromSlice([]float32{2, 4, 0, 6}, 1, 1, 2, 2)
	y := bn.Forward(x, Eval)
	want := tensor.FromSlice([]float32{0, 1, -1, 2}, 1, 1, 2, 2)
	if !y.AllClose(want, 1e-3) {
		t.Fatalf("Eval output %v, want %v", y, want)
	}
}

func TestBatchNormAdaptMovesRunningStatsTowardTarget(t *testing.T) {
	rng := tensor.NewRNG(4)
	bn := NewBatchNorm2D("bn", 1)
	// Source stats.
	bn.SetRunningStats(tensor.FromSlice([]float32{0}, 1), tensor.FromSlice([]float32{1}, 1))
	x := tensor.New(4, 1, 8, 8)
	rng.FillNormal(x, 5, 1) // shifted target domain
	before := bn.RunningMean.Data[0]
	bn.Forward(x, Adapt)
	after := bn.RunningMean.Data[0]
	if !(after > before && after <= 5.1) {
		t.Fatalf("running mean did not move toward target: %v → %v", before, after)
	}
	// Repeated adaptation converges near the target mean.
	for i := 0; i < 40; i++ {
		bn.Forward(x, Adapt)
	}
	if math.Abs(float64(bn.RunningMean.Data[0])-5) > 0.2 {
		t.Fatalf("running mean did not converge: %v", bn.RunningMean.Data[0])
	}
}

func TestBatchNormEvalDoesNotTouchRunningStats(t *testing.T) {
	rng := tensor.NewRNG(5)
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(2, 2, 3, 3)
	rng.FillNormal(x, 7, 2)
	m0 := bn.RunningMean.Clone()
	v0 := bn.RunningVar.Clone()
	bn.Forward(x, Eval)
	if !bn.RunningMean.AllClose(m0, 0) || !bn.RunningVar.AllClose(v0, 0) {
		t.Fatal("Eval must not update running stats")
	}
}

func TestBatchNormOnlyGammaBetaAreParams(t *testing.T) {
	bn := NewBatchNorm2D("bn", 4)
	ps := bn.Params()
	if len(ps) != 2 || ps[0].Name != "bn.gamma" || ps[1].Name != "bn.beta" {
		t.Fatalf("params = %v", ps)
	}
	if ParamCount(ps) != 8 {
		t.Fatal("BN param count wrong")
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.FromSlice([]float32{-1, 0, 2, -3}, 1, 1, 2, 2)
	y := r.Forward(x, Eval)
	want := tensor.FromSlice([]float32{0, 0, 2, 0}, 1, 1, 2, 2)
	if !y.AllClose(want, 0) {
		t.Fatalf("ReLU = %v", y)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("f")
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, Eval)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("Flatten shape %v", y.Shape())
	}
	g := f.Backward(tensor.New(2, 60))
	if g.NDim() != 4 || g.Dim(3) != 5 {
		t.Fatalf("Backward shape %v", g.Shape())
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2D("p", tensor.ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2})
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(x, Eval)
	want := tensor.FromSlice([]float32{6, 8, 14, 16}, 1, 1, 2, 2)
	if !y.AllClose(want, 0) {
		t.Fatalf("MaxPool = %v", y)
	}
}

func TestGlobalAvgPoolForward(t *testing.T) {
	p := NewGlobalAvgPool("g")
	x := tensor.FromSlice([]float32{1, 3, 5, 7, 2, 2, 2, 2}, 1, 2, 2, 2)
	y := p.Forward(x, Eval)
	want := tensor.FromSlice([]float32{4, 2}, 1, 2)
	if !y.AllClose(want, 0) {
		t.Fatalf("GAP = %v", y)
	}
}

func TestSGDReducesQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||² with SGD; gradient = 2(w-target).
	target := tensor.FromSlice([]float32{1, -2, 3}, 3)
	p := NewParam("w", tensor.New(3))
	opt, st := NewSGD(0.1, 0.9, 0), NewOptState(3)
	for i := 0; i < 100; i++ {
		p.ZeroGrad()
		for j := range p.Value.Data {
			p.Grad.Data[j] = 2 * (p.Value.Data[j] - target.Data[j])
		}
		opt.Step([]*Param{p}, &st)
	}
	if !p.Value.AllClose(target, 1e-2) {
		t.Fatalf("SGD did not converge: %v", p.Value)
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	target := tensor.FromSlice([]float32{0.5, -1.5}, 2)
	p := NewParam("w", tensor.New(2))
	opt, st := NewAdam(0.1), NewOptState(2)
	for i := 0; i < 300; i++ {
		p.ZeroGrad()
		for j := range p.Value.Data {
			p.Grad.Data[j] = 2 * (p.Value.Data[j] - target.Data[j])
		}
		opt.Step([]*Param{p}, &st)
	}
	if !p.Value.AllClose(target, 5e-2) {
		t.Fatalf("Adam did not converge: %v", p.Value)
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{10}, 1))
	opt, st := NewSGD(0.1, 0, 0.5), NewOptState(1)
	for i := 0; i < 50; i++ {
		p.ZeroGrad()
		opt.Step([]*Param{p}, &st)
	}
	if math.Abs(float64(p.Value.Data[0])) > 1 {
		t.Fatalf("weight decay ineffective: %v", p.Value.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.New(4))
	p.Grad.CopyFrom(tensor.FromSlice([]float32{3, 4, 0, 0}, 4)) // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-6 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	if math.Abs(p.Grad.Norm2()-1) > 1e-5 {
		t.Fatalf("post-clip norm %v", p.Grad.Norm2())
	}
	// Below the limit nothing changes.
	p.Grad.CopyFrom(tensor.FromSlice([]float32{0.1, 0, 0, 0}, 4))
	ClipGradNorm([]*Param{p}, 1)
	if math.Abs(p.Grad.Norm2()-0.1) > 1e-7 {
		t.Fatal("clip must not scale small gradients")
	}
}

func TestParamsSaveLoadRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(20)
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	make1 := func(r *tensor.RNG) *Sequential {
		return NewSequential("m",
			NewConv2D("c1", 1, 2, g, true, r),
			NewBatchNorm2D("bn1", 2),
			NewFlatten("f"),
			NewLinear("fc", 2*3*3, 4, r),
		)
	}
	src := make1(rng)
	bn := src.BatchNorms()[0]
	rng.FillUniform(bn.RunningMean, -1, 1)
	extras := map[string]*tensor.Tensor{"bn1.running_mean": bn.RunningMean, "bn1.running_var": bn.RunningVar}
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params(), extras); err != nil {
		t.Fatalf("SaveParams: %v", err)
	}
	dst := make1(tensor.NewRNG(999)) // different init
	got, err := LoadParams(&buf, dst.Params())
	if err != nil {
		t.Fatalf("LoadParams: %v", err)
	}
	for i, p := range src.Params() {
		if !p.Value.AllClose(dst.Params()[i].Value, 0) {
			t.Fatalf("param %s not restored", p.Name)
		}
	}
	if !got["bn1.running_mean"].AllClose(bn.RunningMean, 0) {
		t.Fatal("extras not returned")
	}
	dst.BatchNorms()[0].SetRunningStats(got["bn1.running_mean"], got["bn1.running_var"])
	// Same input → same output after restore.
	x := tensor.New(1, 1, 3, 3)
	rng.FillNormal(x, 0, 1)
	if !src.Forward(x, Eval).AllClose(dst.Forward(x, Eval), 1e-6) {
		t.Fatal("restored model diverges")
	}
}

func TestLoadParamsRejectsMissingAndMisshaped(t *testing.T) {
	rng := tensor.NewRNG(21)
	p1 := NewParam("a", tensor.New(3))
	var buf bytes.Buffer
	if err := SaveParams(&buf, []*Param{p1}, nil); err != nil {
		t.Fatal(err)
	}
	// Missing param "b".
	p2 := NewParam("b", tensor.New(3))
	if _, err := LoadParams(bytes.NewReader(buf.Bytes()), []*Param{p2}); err == nil {
		t.Fatal("missing param accepted")
	}
	// Shape mismatch.
	p3 := NewParam("a", tensor.New(4))
	if _, err := LoadParams(bytes.NewReader(buf.Bytes()), []*Param{p3}); err == nil {
		t.Fatal("misshaped param accepted")
	}
	_ = rng
}

func TestCollectBatchNormsRecurses(t *testing.T) {
	rng := tensor.NewRNG(22)
	g := tensor.ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1}
	inner := NewSequential("inner", NewBatchNorm2D("bn_a", 2), NewConv2D("c", 2, 2, g, false, rng))
	outer := NewSequential("outer", inner, NewBatchNorm2D("bn_b", 2))
	bns := outer.BatchNorms()
	if len(bns) != 2 || bns[0].Name() != "bn_a" || bns[1].Name() != "bn_b" {
		t.Fatalf("BatchNorms = %v", bns)
	}
}

func TestEntropyLossDirectionSharpens(t *testing.T) {
	// A gradient step against the entropy gradient must reduce entropy.
	rng := tensor.NewRNG(23)
	logits := tensor.New(6, 5)
	rng.FillNormal(logits, 0, 0.5)
	h0, grad := EntropyLoss(logits)
	stepped := tensor.AxpyInPlace(logits.Clone(), -0.5, grad)
	h1, _ := EntropyLoss(stepped)
	if h1 >= h0 {
		t.Fatalf("entropy did not decrease: %v → %v", h0, h1)
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes → loss = log 4.
	logits := tensor.New(2, 4)
	loss, _ := CrossEntropyRows(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-5 {
		t.Fatalf("loss = %v, want %v", loss, math.Log(4))
	}
}

func TestGradThroughSoftmaxMatchesNumeric(t *testing.T) {
	rng := tensor.NewRNG(24)
	logits := tensor.New(3, 4)
	rng.FillNormal(logits, 0, 1)
	// L = Σ w·p with fixed w.
	w := tensor.New(3, 4)
	rng.FillUniform(w, -1, 1)
	probs := tensor.SoftmaxRows(logits)
	grad := GradThroughSoftmax(probs, w)
	eps := float32(1e-2)
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp := tensor.Dot(tensor.SoftmaxRows(logits), w)
		logits.Data[i] = orig - eps
		lm := tensor.Dot(tensor.SoftmaxRows(logits), w)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * float64(eps))
		if math.Abs(num-float64(grad.Data[i])) > 1e-2 {
			t.Fatalf("grad mismatch at %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}
