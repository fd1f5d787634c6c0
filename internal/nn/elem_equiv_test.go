package nn

import (
	"math"
	"testing"

	"ldbnadapt/internal/tensor"
)

// Layer ≡ reference suite for the layers that moved onto the tensor
// elementwise kernels. The references below are the loops ReLU and
// BatchNorm2D ran before: one float at a time, a []bool mask, one
// reduction chain per channel. Everything is compared bit for bit.

// refReLU is the mask implementation.
type refReLU struct{ mask []bool }

func (r *refReLU) forward(x []float32, mode Mode) []float32 {
	if mode.IsInfer() {
		r.mask = nil
		for i, v := range x {
			if v <= 0 {
				x[i] = 0
			}
		}
		return x
	}
	out := make([]float32, len(x))
	r.mask = make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
			r.mask[i] = true
		}
	}
	return out
}

func (r *refReLU) backward(grad []float32) []float32 {
	out := make([]float32, len(grad))
	for i, v := range grad {
		if r.mask[i] {
			out[i] = v
		}
	}
	return out
}

// edgy fills t with uniform values and overwrites a spread of
// elements with the inputs a select can get wrong: +0, −0, NaN.
func edgy(rng *tensor.RNG, t *tensor.Tensor) {
	rng.FillUniform(t, -2, 2)
	edge := []float32{0, math.Float32frombits(1 << 31), float32(math.NaN())}
	for i := 0; i < len(t.Data); i += 5 {
		t.Data[i] = edge[(i/5)%len(edge)]
	}
}

func TestReLUMatchesMaskReference(t *testing.T) {
	rng := tensor.NewRNG(0x2e1)
	for _, mode := range []Mode{Infer, Adapt, Train, Eval} {
		x := tensor.New(2, 3, 5, 7) // 210 elements: whole vectors and a tail
		edgy(rng, x)
		grad := tensor.New(x.Shape()...)
		edgy(rng, grad)

		ref := &refReLU{}
		want := ref.forward(append([]float32(nil), x.Data...), mode)
		r := NewReLU("relu")
		got := r.Forward(x.Clone(), mode)
		if i := f32Diff(want, got.Data); i >= 0 {
			t.Fatalf("mode=%v: output %d is %x, mask reference gives %x", mode, i,
				math.Float32bits(got.Data[i]), math.Float32bits(want[i]))
		}
		// The two rules must keep differing on NaN: Infer passes it
		// through, every other mode zeroes it.
		for i, v := range x.Data {
			if v == v {
				continue
			}
			if kept := got.Data[i] != got.Data[i]; kept != mode.IsInfer() {
				t.Fatalf("mode=%v: NaN input %d came out as %v", mode, i, got.Data[i])
			}
		}
		if mode.IsInfer() {
			mustPanic(t, "nn: relu: Backward before Forward", func() { r.Backward(grad) })
			continue
		}
		if i := f32Diff(ref.backward(grad.Data), r.Backward(grad).Data); i >= 0 {
			t.Fatalf("mode=%v: dX element %d differs from the mask reference", mode, i)
		}
		mustPanic(t, "nn: relu: grad size 5, want 210", func() { r.Backward(tensor.New(5)) })
	}
	mustPanic(t, "nn: fresh: Backward before Forward", func() { NewReLU("fresh").Backward(tensor.New(1)) })
}

// refBN is BatchNorm2D's arithmetic as single loops over one channel
// at a time. Parameters and running statistics are its own copies.
type refBN struct {
	c                     int
	eps, mom, adaptMom    float32
	gamma, beta           []float32
	runMean, runVar       []float32
	dGamma, dBeta         []float32
	frozenGamma, frozenBt bool

	xhat, invStd []float32
	mode         Mode
	n, hw        int
	statsMom     float32
}

func refBNOf(b *BatchNorm2D) *refBN {
	cp := func(s []float32) []float32 { return append([]float32(nil), s...) }
	return &refBN{
		c: b.C, eps: b.Eps, mom: b.Momentum, adaptMom: b.AdaptMomentum,
		gamma: cp(b.Gamma.Value.Data), beta: cp(b.Beta.Value.Data),
		runMean: cp(b.RunningMean.Data), runVar: cp(b.RunningVar.Data),
		dGamma: cp(b.Gamma.Grad.Data), dBeta: cp(b.Beta.Grad.Data),
		frozenGamma: b.Gamma.Frozen, frozenBt: b.Beta.Frozen,
	}
}

func (r *refBN) inferForward(x []float32, n, hw int, src []*BNSource) []float32 {
	out := make([]float32, len(x))
	for ni := 0; ni < n; ni++ {
		mean, varc, gamma, beta := r.runMean, r.runVar, r.gamma, r.beta
		if src != nil {
			mean, varc, gamma, beta = src[ni].Mean, src[ni].Var, src[ni].Gamma, src[ni].Beta
		}
		for c := 0; c < r.c; c++ {
			base := (ni*r.c + c) * hw
			m := mean[c]
			is := float32(1.0 / math.Sqrt(float64(varc[c])+float64(r.eps)))
			g, bt := gamma[c], beta[c]
			for i, v := range x[base : base+hw] {
				xh := (v - m) * is
				out[base+i] = g*xh + bt
			}
		}
	}
	return out
}

func (r *refBN) forward(x []float32, n, hw int, mode Mode) []float32 {
	r.mode, r.n, r.hw = mode, n, hw
	mean, varc := r.runMean, r.runVar
	if mode != Eval {
		mom := r.mom
		if mode == Adapt {
			mom = r.adaptMom
			r.statsMom = mom
		}
		cnt := n * hw
		bm, bv := make([]float32, r.c), make([]float32, r.c)
		for c := 0; c < r.c; c++ {
			s := 0.0
			for ni := 0; ni < n; ni++ {
				base := (ni*r.c + c) * hw
				for _, v := range x[base : base+hw] {
					s += float64(v)
				}
			}
			m := s / float64(cnt)
			v := 0.0
			for ni := 0; ni < n; ni++ {
				base := (ni*r.c + c) * hw
				for _, xv := range x[base : base+hw] {
					d := float64(xv) - m
					v += d * d
				}
			}
			bm[c] = float32(m)
			bv[c] = float32(v / float64(cnt))
			r.runMean[c] = (1-mom)*r.runMean[c] + mom*bm[c]
			r.runVar[c] = (1-mom)*r.runVar[c] + mom*bv[c]
		}
		if mode != Adapt { // Adapt normalizes by the refreshed running statistics
			mean, varc = bm, bv
		}
	}
	r.invStd = make([]float32, r.c)
	for c := range r.invStd {
		r.invStd[c] = float32(1.0 / math.Sqrt(float64(varc[c])+float64(r.eps)))
	}
	out := make([]float32, len(x))
	r.xhat = make([]float32, len(x))
	for ni := 0; ni < n; ni++ {
		for c := 0; c < r.c; c++ {
			base := (ni*r.c + c) * hw
			m, is := mean[c], r.invStd[c]
			g, bt := r.gamma[c], r.beta[c]
			for i, v := range x[base : base+hw] {
				xh := (v - m) * is
				r.xhat[base+i] = xh
				out[base+i] = g*xh + bt
			}
		}
	}
	return out
}

func (r *refBN) backward(grad []float32) []float32 {
	dx := make([]float32, len(grad))
	cnt := float32(r.n * r.hw)
	statsMom := float32(1)
	if r.mode == Adapt {
		statsMom = r.statsMom
	}
	for c := 0; c < r.c; c++ {
		sumDY, sumDYX := float32(0), float32(0)
		for ni := 0; ni < r.n; ni++ {
			base := (ni*r.c + c) * r.hw
			for i, g := range grad[base : base+r.hw] {
				sumDY += g
				sumDYX += g * r.xhat[base+i]
			}
		}
		if !r.frozenBt {
			r.dBeta[c] += sumDY
		}
		if !r.frozenGamma {
			r.dGamma[c] += sumDYX
		}
		g, is := r.gamma[c], r.invStd[c]
		for ni := 0; ni < r.n; ni++ {
			base := (ni*r.c + c) * r.hw
			for i, gv := range grad[base : base+r.hw] {
				if r.mode == Eval {
					scale := g * is
					dx[base+i] = scale * gv
					continue
				}
				k := g * is / cnt
				dx[base+i] = k * (cnt*gv - statsMom*(sumDY+r.xhat[base+i]*sumDYX))
			}
		}
	}
	return dx
}

// TestBatchNormMatchesReference crosses every reduction path — four
// channels abreast, its remainder, C < 4 — with every band split the
// pool can make of them, in every mode, frozen and not.
func TestBatchNormMatchesReference(t *testing.T) {
	lowLayerGates(t)
	const h, w = 5, 5 // 25-element planes: three whole vectors and a one-element tail
	for _, procs := range []int{1, 2, 4} {
		withNNProcs(t, procs, func() {
			rng := tensor.NewRNG(0xb4)
			for c := 1; c <= 9; c++ {
				for _, n := range []int{1, 3} {
					for _, mode := range []Mode{Eval, Train, Adapt, Infer} {
						for _, frozen := range [][2]bool{{false, false}, {true, false}, {true, true}} {
							checkBatchNorm(t, rng, c, n, h, w, mode, frozen[0], frozen[1], procs)
						}
					}
				}
			}
		})
	}
}

func checkBatchNorm(t *testing.T, rng *tensor.RNG, c, n, h, w int, mode Mode, frozenGamma, frozenBeta bool, procs int) {
	t.Helper()
	b := NewBatchNorm2D("bn", c)
	rng.FillUniform(b.Gamma.Value, -1.5, 1.5)
	rng.FillUniform(b.Beta.Value, -0.5, 0.5)
	rng.FillUniform(b.RunningMean, -0.3, 0.3)
	rng.FillUniform(b.RunningVar, 0.5, 1.5)
	rng.FillUniform(b.Gamma.EnsureGrad(), -1, 1) // Backward accumulates
	rng.FillUniform(b.Beta.EnsureGrad(), -1, 1)
	b.Gamma.Frozen, b.Beta.Frozen = frozenGamma, frozenBeta
	ref := refBNOf(b)
	x := tensor.New(n, c, h, w)
	rng.FillUniform(x, -2, 2)
	for i := 0; i < len(x.Data); i += 7 {
		x.Data[i] = [2]float32{0, math.Float32frombits(1 << 31)}[(i/7)%2]
	}
	fail := func(what string, i int) {
		t.Helper()
		t.Fatalf("C=%d n=%d mode=%v frozen=(%v,%v) procs=%d: %s element %d differs from the reference",
			c, n, mode, frozenGamma, frozenBeta, procs, what, i)
	}
	if mode.IsInfer() {
		if i := f32Diff(ref.inferForward(x.Data, n, h*w, nil), b.Forward(x, mode).Data); i >= 0 {
			fail("infer output", i)
		}
		src := make([]*BNSource, n)
		for i := range src {
			s := &BNSource{Mean: make([]float32, c), Var: make([]float32, c), Gamma: make([]float32, c), Beta: make([]float32, c)}
			for j := 0; j < c; j++ {
				s.Mean[j], s.Var[j] = float32(rng.Range(-0.3, 0.3)), float32(rng.Range(0.5, 1.5))
				s.Gamma[j], s.Beta[j] = float32(rng.Range(-1.5, 1.5)), float32(rng.Range(-0.5, 0.5))
			}
			src[i] = s
		}
		b.SetSampleSources(src)
		if i := f32Diff(ref.inferForward(x.Data, n, h*w, src), b.Forward(x, mode).Data); i >= 0 {
			fail("per-sample-source output", i)
		}
		return
	}
	if i := f32Diff(ref.forward(x.Data, n, h*w, mode), b.Forward(x, mode).Data); i >= 0 {
		fail("output", i)
	}
	if i := f32Diff(ref.xhat, b.lastXHat.Data); i >= 0 {
		fail("x̂", i)
	}
	if i := f32Diff(ref.runMean, b.RunningMean.Data); i >= 0 {
		fail("running mean", i)
	}
	if i := f32Diff(ref.runVar, b.RunningVar.Data); i >= 0 {
		fail("running variance", i)
	}
	grad := tensor.New(n, c, h, w)
	rng.FillUniform(grad, -1, 1)
	if i := f32Diff(ref.backward(grad.Data), b.Backward(grad).Data); i >= 0 {
		fail("dX", i)
	}
	if i := f32Diff(ref.dGamma, b.Gamma.Grad.Data); i >= 0 {
		fail("dγ", i)
	}
	if i := f32Diff(ref.dBeta, b.Beta.Grad.Data); i >= 0 {
		fail("dβ", i)
	}
}
