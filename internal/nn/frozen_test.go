package nn

import (
	"math"
	"strings"
	"testing"

	"ldbnadapt/internal/tensor"
)

// Frozen-parameter contract, layer by layer: freezing changes which
// gradients are computed and never a bit of what is still computed.

// sentinel marks a Grad the layer must not touch.
const sentinel = float32(12345.5)

func fillSentinel(ps ...*Param) {
	for _, p := range ps {
		if p == nil {
			continue
		}
		for i := range p.Grad.Data {
			p.Grad.Data[i] = sentinel
		}
	}
}

func untouched(p *Param) bool {
	for _, v := range p.Grad.Data {
		if v != sentinel {
			return false
		}
	}
	return true
}

// convPair builds two convs with identical weights (some of them zero,
// so the GEMMs' zero-skip is exercised) and freezes the second.
func convPair(inC, outC int, g tensor.ConvGeom, bias bool) (train, frozen *Conv2D) {
	mk := func() *Conv2D {
		c := NewConv2D("c", inC, outC, g, bias, tensor.NewRNG(7))
		for i := 0; i < len(c.Weight.Value.Data); i += 3 {
			c.Weight.Value.Data[i] = 0
		}
		if bias {
			tensor.NewRNG(8).FillUniform(c.Bias.Value, -1, 1)
		}
		return c
	}
	train, frozen = mk(), mk()
	SetTrainable(frozen.Params(), nil)
	return train, frozen
}

func TestFrozenConvMatchesTrainable(t *testing.T) {
	geoms := []struct {
		name      string
		inC, outC int
		g         tensor.ConvGeom
		bias      bool
		hw        int
	}{
		{"3x3 padded", 3, 8, tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}, true, 9},
		{"3x3 stride 2", 4, 6, tensor.ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}, false, 9},
		{"1x1", 8, 5, tensor.ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1}, false, 7},
		{"1x1 stride 2", 8, 5, tensor.ConvGeom{KH: 1, KW: 1, SH: 2, SW: 2}, true, 8},
		// Past the tensor package's 1<<19-MAC gate, so at procs > 1 the
		// two dX GEMMs themselves band (rows for one, possibly columns
		// for the other).
		{"3x3 above the GEMM gate", 16, 32, tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}, false, 12},
	}
	lowLayerGates(t) // n ≥ 2 crosses sample banding at procs > 1
	for _, gm := range geoms {
		for _, n := range []int{1, 3} {
			for _, mode := range []Mode{Adapt, Train, Eval} {
				for _, procs := range []int{1, 2, 4} {
					withNNProcs(t, procs, func() {
						train, frozen := convPair(gm.inC, gm.outC, gm.g, gm.bias)
						rng := tensor.NewRNG(11)
						x := tensor.New(n, gm.inC, gm.hw, gm.hw)
						rng.FillUniform(x, -1, 1)
						fillSentinel(frozen.Weight, frozen.Bias)
						ot, of := train.Forward(x, mode), frozen.Forward(x, mode)
						if i := f32Diff(ot.Data, of.Data); i >= 0 {
							t.Fatalf("%s n=%d %v procs=%d: output element %d differs", gm.name, n, mode, procs, i)
						}
						grad := tensor.New(ot.Shape()...)
						rng.FillUniform(grad, -1, 1)
						// Twice: the second frozen Backward runs on the
						// cached transpose rather than building it.
						for pass := 0; pass < 2; pass++ {
							dt, df := train.Backward(grad), frozen.Backward(grad)
							if i := f32Diff(dt.Data, df.Data); i >= 0 {
								t.Fatalf("%s n=%d %v procs=%d pass %d: dX element %d differs: %v vs %v",
									gm.name, n, mode, procs, pass, i, dt.Data[i], df.Data[i])
							}
						}
						if !untouched(frozen.Weight) || (gm.bias && !untouched(frozen.Bias)) {
							t.Fatalf("%s n=%d %v: frozen conv wrote a gradient", gm.name, n, mode)
						}
						if train.Weight.Grad.Norm2() == 0 {
							t.Fatalf("%s n=%d %v: trainable conv computed no dW", gm.name, n, mode)
						}
					})
				}
			}
		}
	}
}

// TestFrozenConvBiasOnly freezes the two parameters independently.
func TestFrozenConvBiasOnly(t *testing.T) {
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	train, half := convPair(3, 4, g, true)
	half.Bias.Frozen = false // weight frozen, bias trainable
	x := tensor.New(2, 3, 6, 6)
	tensor.NewRNG(1).FillUniform(x, -1, 1)
	fillSentinel(half.Weight)
	grad := tensor.New(train.Forward(x, Adapt).Shape()...)
	half.Forward(x, Adapt)
	tensor.NewRNG(2).FillUniform(grad, -1, 1)
	train.Backward(grad)
	half.Backward(grad)
	if !untouched(half.Weight) {
		t.Fatal("frozen weight's Grad written")
	}
	if i := f32Diff(train.Bias.Grad.Data, half.Bias.Grad.Data); i >= 0 {
		t.Fatalf("db element %d differs with the weight frozen", i)
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", r, want)
		}
	}()
	f()
}

// TestFrozenConvStaleFreezePanics: the forward keeps no lowering in
// either state, only its input, so unfreezing the weight between
// Forward and Backward yields the dW (and dX) of a trainable forward;
// the ordering panics stay.
func TestFrozenConvStaleFreezePanics(t *testing.T) {
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}
	train, c := convPair(3, 4, g, false)
	x := tensor.New(2, 3, 7, 6)
	grad := tensor.New(2, 4, 4, 3)
	tensor.NewRNG(5).FillUniform(x, -1, 1)
	tensor.NewRNG(6).FillUniform(grad, -1, 1)
	mustPanic(t, "Backward before Forward", func() { c.Backward(grad) })
	train.Forward(x, Adapt)
	wantDX := append([]float32(nil), train.Backward(grad).Data...)
	c.Forward(x, Adapt)
	c.Weight.Frozen = false
	if i := f32Diff(wantDX, c.Backward(grad).Data); i >= 0 {
		t.Fatalf("unfrozen after the forward: dX element %d differs from the trainable forward's", i)
	}
	if i := f32Diff(train.Weight.Grad.Data, c.Weight.Grad.Data); i >= 0 {
		t.Fatalf("unfrozen after the forward: dW element %d differs from the trainable forward's", i)
	}
	// The other direction: freeze after a trainable forward.
	c.Forward(x, Adapt)
	c.Weight.Frozen = true
	c.Backward(grad)
	c.Forward(x, Infer)
	mustPanic(t, "Backward before Forward", func() { c.Backward(grad) })
}

// TestFrozenConvTransposeCacheInvalidation: the cached Wᵀ survives
// weight mutation until InvalidateWeightCaches (the int8 table's
// contract), and a trainable Backward — whose weight is about to be
// stepped — drops it on its own.
func TestFrozenConvTransposeCacheInvalidation(t *testing.T) {
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	train, c := convPair(3, 4, g, false)
	x := tensor.New(2, 3, 6, 6)
	grad := tensor.New(2, 4, 6, 6)
	tensor.NewRNG(3).FillUniform(x, -1, 1)
	tensor.NewRNG(4).FillUniform(grad, -1, 1)
	dx := func(l *Conv2D) []float32 {
		l.Forward(x, Adapt)
		return append([]float32(nil), l.Backward(grad).Data...)
	}
	before := dx(c)
	for _, l := range []*Conv2D{train, c} {
		for i := range l.Weight.Value.Data {
			l.Weight.Value.Data[i] *= 1.5
		}
	}
	want := dx(train)
	if f32Diff(before, dx(c)) >= 0 {
		t.Fatal("transpose rebuilt without InvalidateWeightCaches — the cache is not actually a cache")
	}
	c.InvalidateWeightCaches()
	if i := f32Diff(want, dx(c)); i >= 0 {
		t.Fatalf("after InvalidateWeightCaches dX element %d is not the fresh weights'", i)
	}
	// Unfreeze, backward (as a training step would), mutate, refreeze.
	c.Weight.Frozen = false
	dx(c)
	for _, l := range []*Conv2D{train, c} {
		for i := range l.Weight.Value.Data {
			l.Weight.Value.Data[i] -= 0.25
		}
	}
	c.Weight.Frozen = true
	if i := f32Diff(dx(train), dx(c)); i >= 0 {
		t.Fatalf("a trainable Backward left a stale transpose behind: dX element %d", i)
	}
}

func TestFrozenLinearMatchesTrainable(t *testing.T) {
	for _, n := range []int{1, 4} {
		mk := func() *Linear {
			l := NewLinear("fc", 37, 11, tensor.NewRNG(5))
			for i := 0; i < len(l.Weight.Value.Data); i += 4 {
				l.Weight.Value.Data[i] = 0
			}
			return l
		}
		train, frozen := mk(), mk()
		SetTrainable(frozen.Params(), nil)
		fillSentinel(frozen.Weight, frozen.Bias)
		rng := tensor.NewRNG(6)
		x := tensor.New(n, 37)
		grad := tensor.New(n, 11)
		rng.FillUniform(x, -1, 1)
		rng.FillUniform(grad, -1, 1)
		grad.Data[0] = 0
		if i := f32Diff(train.Forward(x, Adapt).Data, frozen.Forward(x, Adapt).Data); i >= 0 {
			t.Fatalf("n=%d: output element %d differs", n, i)
		}
		if i := f32Diff(train.Backward(grad).Data, frozen.Backward(grad).Data); i >= 0 {
			t.Fatalf("n=%d: dX element %d differs", n, i)
		}
		if !untouched(frozen.Weight) || !untouched(frozen.Bias) {
			t.Fatalf("n=%d: frozen linear wrote a gradient", n)
		}
		if train.Weight.Grad.Norm2() == 0 || train.Bias.Grad.Norm2() == 0 {
			t.Fatalf("n=%d: trainable linear computed no gradient", n)
		}
	}
}

func TestFrozenBatchNormMatchesTrainable(t *testing.T) {
	train, frozen := NewBatchNorm2D("bn", 6), NewBatchNorm2D("bn", 6)
	SetTrainable(frozen.Params(), nil)
	fillSentinel(frozen.Gamma, frozen.Beta)
	rng := tensor.NewRNG(9)
	x := tensor.New(3, 6, 4, 4)
	grad := tensor.New(3, 6, 4, 4)
	rng.FillUniform(x, -1, 1)
	rng.FillUniform(grad, -1, 1)
	if i := f32Diff(train.Forward(x, Adapt).Data, frozen.Forward(x, Adapt).Data); i >= 0 {
		t.Fatalf("output element %d differs", i)
	}
	if i := f32Diff(train.Backward(grad).Data, frozen.Backward(grad).Data); i >= 0 {
		t.Fatalf("dX element %d differs", i)
	}
	if !untouched(frozen.Gamma) || !untouched(frozen.Beta) {
		t.Fatal("frozen BN wrote a gradient")
	}
	if train.Gamma.Grad.Norm2() == 0 {
		t.Fatal("trainable BN computed no dγ")
	}
}

// countLayer is a stub that counts its Backward calls and passes the
// gradient through (or, with stop set, ends backprop like a Sequential
// that cut).
type countLayer struct {
	name  string
	param *Param
	calls int
	stop  bool
}

func stub(name string, hasParam, frozen bool) *countLayer {
	l := &countLayer{name: name}
	if hasParam {
		l.param = NewParam(name+".w", tensor.New(1))
		l.param.Frozen = frozen
	}
	return l
}

func (l *countLayer) Name() string                                    { return l.name }
func (l *countLayer) Forward(x *tensor.Tensor, _ Mode) *tensor.Tensor { return x }
func (l *countLayer) Backward(g *tensor.Tensor) *tensor.Tensor {
	l.calls++
	if l.stop {
		return nil
	}
	return g
}
func (l *countLayer) Params() []*Param {
	if l.param == nil {
		return nil
	}
	return []*Param{l.param}
}

func TestSequentialBackwardStopsBelowLowestTrainable(t *testing.T) {
	layers := []*countLayer{
		stub("a", false, false),
		stub("b", true, true),
		stub("c", true, false), // lowest trainable: the cut
		stub("d", false, false),
		stub("e", true, true),
	}
	calls := func() (out []int) {
		for _, l := range layers {
			out = append(out, l.calls)
			l.calls = 0
		}
		return out
	}
	seq := NewSequential("seq")
	for _, l := range layers {
		seq.Layers = append(seq.Layers, l)
	}
	g := tensor.New(1)
	if got := seq.Backward(g); got != nil {
		t.Fatalf("stopped early but returned %v, want nil", got)
	}
	if got, want := calls(), []int{0, 0, 1, 1, 1}; !equalInts(got, want) {
		t.Fatalf("Backward calls %v, want %v", got, want)
	}
	if !seq.HasTrainable() {
		t.Fatal("HasTrainable false with c trainable")
	}

	// Nothing trainable: a pure function of the input, full backward.
	layers[2].param.Frozen = true
	if got := seq.Backward(g); got != g {
		t.Fatal("fully frozen chain did not return the input gradient")
	}
	if got, want := calls(), []int{1, 1, 1, 1, 1}; !equalInts(got, want) {
		t.Fatalf("fully frozen: Backward calls %v, want %v", got, want)
	}
	if seq.HasTrainable() {
		t.Fatal("HasTrainable true with everything frozen")
	}

	// Bottom layer trainable: nothing to skip, dX returned as before.
	layers[0].param = NewParam("a.w", tensor.New(1))
	if got := seq.Backward(g); got != g {
		t.Fatal("all-the-way backward did not return the input gradient")
	}
	calls()

	// A layer that stops backprop above a trainable one is a wiring
	// error and must say so.
	layers[3].stop = true
	mustPanic(t, "nn: seq: d stopped backprop, but a below it still has trainable parameters",
		func() { seq.Backward(g) })
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSetTrainable(t *testing.T) {
	ps := []*Param{NewParam("a", tensor.New(1)), NewParam("b", tensor.New(1)), NewParam("c", tensor.New(1))}
	if ps[0].Frozen {
		t.Fatal("a new Param must be trainable")
	}
	for i := 0; i < 2; i++ { // idempotent
		SetTrainable(ps, ps[1:2])
		if !ps[0].Frozen || ps[1].Frozen || !ps[2].Frozen {
			t.Fatalf("pass %d: frozen bits %v %v %v, want only b trainable", i, ps[0].Frozen, ps[1].Frozen, ps[2].Frozen)
		}
	}
	SetTrainable(ps, ps) // order-safe: the last call alone decides
	for _, p := range ps {
		if p.Frozen {
			t.Fatalf("%s still frozen after SetTrainable(all, all)", p.Name)
		}
	}
}

// refEntropyLoss and refConfidenceLoss are the allocating
// implementations the …Into forms replaced, kept as the reference the
// in-place arithmetic is held to.
func refEntropyLoss(logits *tensor.Tensor) (float64, *tensor.Tensor) {
	rows, classes := logits.Dim(0), logits.Dim(1)
	probs := tensor.SoftmaxRows(logits)
	grad := tensor.New(rows, classes)
	total := 0.0
	inv := 1.0 / float64(rows)
	logp := make([]float64, classes)
	for i := 0; i < rows; i++ {
		p := probs.Data[i*classes : (i+1)*classes]
		h := 0.0
		for j, pv := range p {
			lp := math.Log(math.Max(float64(pv), 1e-12))
			logp[j] = lp
			h -= float64(pv) * lp
		}
		total += h
		g := grad.Data[i*classes : (i+1)*classes]
		for j, pv := range p {
			g[j] = float32(-float64(pv) * (logp[j] + h) * inv)
		}
	}
	return total * inv, grad
}

func refConfidenceLoss(logits *tensor.Tensor) (float64, *tensor.Tensor) {
	rows, classes := logits.Dim(0), logits.Dim(1)
	probs := tensor.SoftmaxRows(logits)
	grad := tensor.New(rows, classes)
	total := 0.0
	inv := 1.0 / float64(rows)
	for i := 0; i < rows; i++ {
		p := probs.Data[i*classes : (i+1)*classes]
		best := 0
		for j, pv := range p {
			if pv > p[best] {
				best = j
			}
		}
		pm := float64(p[best])
		total -= pm
		g := grad.Data[i*classes : (i+1)*classes]
		for j, pv := range p {
			d := -pm * (-float64(pv))
			if j == best {
				d = -pm * (1 - float64(pv))
			}
			g[j] = float32(d * inv)
		}
	}
	return total * inv, grad
}

func TestLossIntoMatchesReferenceAndReusesScratch(t *testing.T) {
	cases := []struct {
		name string
		ref  func(*tensor.Tensor) (float64, *tensor.Tensor)
		into func(*LossScratch, *tensor.Tensor) (float64, *tensor.Tensor)
		fn   func(*tensor.Tensor) (float64, *tensor.Tensor)
	}{
		{"entropy", refEntropyLoss, EntropyLossInto, EntropyLoss},
		{"confidence", refConfidenceLoss, ConfidenceLossInto, func(x *tensor.Tensor) (float64, *tensor.Tensor) {
			return ConfidenceLossInto(new(LossScratch), x)
		}},
	}
	for _, c := range cases {
		var ws LossScratch
		for _, rows := range []int{12, 5, 12} { // shrink and regrow the scratch
			logits := tensor.New(rows, 9)
			tensor.NewRNG(uint64(rows)).FillUniform(logits, -6, 6)
			wantL, wantG := c.ref(logits)
			gotL, gotG := c.into(&ws, logits)
			if math.Float64bits(wantL) != math.Float64bits(gotL) {
				t.Fatalf("%s rows=%d: loss %v, reference %v", c.name, rows, gotL, wantL)
			}
			if i := f32Diff(wantG.Data, gotG.Data); i >= 0 {
				t.Fatalf("%s rows=%d: gradient element %d differs from the reference", c.name, rows, i)
			}
			l2, g2 := c.fn(logits)
			if math.Float64bits(l2) != math.Float64bits(wantL) || f32Diff(wantG.Data, g2.Data) >= 0 {
				t.Fatalf("%s rows=%d: allocating form differs from the reference", c.name, rows)
			}
			if n := testing.AllocsPerRun(10, func() { c.into(&ws, logits) }); n != 0 {
				t.Fatalf("%s rows=%d: Into form allocates %.1f objects per call at steady state", c.name, rows, n)
			}
		}
	}
}
