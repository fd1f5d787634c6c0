package nn

import (
	"math"
	"testing"

	"ldbnadapt/internal/tensor"
)

// scalarLoss is a deterministic test loss: L = Σ w_i · y_i with fixed
// pseudo-random weights, so dL/dy = w.
func scalarLoss(y *tensor.Tensor) (float64, *tensor.Tensor) {
	rng := tensor.NewRNG(777)
	w := tensor.New(y.Shape()...)
	rng.FillUniform(w, -1, 1)
	return tensor.Dot(y, w), w
}

// diffNorm is the Euclidean norm of a−b, each difference taken in
// float32.
func diffNorm(a, b *tensor.Tensor) float64 {
	s := 0.0
	for i, v := range a.Data {
		d := float64(v - b.Data[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// numericalInputGrad estimates dL/dx by central differences through
// layer.Forward.
func numericalInputGrad(l Layer, x *tensor.Tensor, mode Mode, eps float32) *tensor.Tensor {
	g := tensor.New(x.Shape()...)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp, _ := scalarLoss(l.Forward(x, mode))
		x.Data[i] = orig - eps
		lm, _ := scalarLoss(l.Forward(x, mode))
		x.Data[i] = orig
		g.Data[i] = float32((lp - lm) / (2 * float64(eps)))
	}
	return g
}

// numericalParamGrad estimates dL/dp for one parameter tensor.
func numericalParamGrad(l Layer, x *tensor.Tensor, p *Param, mode Mode, eps float32) *tensor.Tensor {
	g := tensor.New(p.Value.Shape()...)
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + eps
		lp, _ := scalarLoss(l.Forward(x, mode))
		p.Value.Data[i] = orig - eps
		lm, _ := scalarLoss(l.Forward(x, mode))
		p.Value.Data[i] = orig
		g.Data[i] = float32((lp - lm) / (2 * float64(eps)))
	}
	return g
}

// checkGrads runs forward+backward once and compares the analytic
// gradients (input and all params) against central differences.
func checkGrads(t *testing.T, l Layer, x *tensor.Tensor, mode Mode, tol float64) {
	t.Helper()
	// BatchNorm in Train/Adapt mode mutates running stats each forward;
	// freeze that during numeric probing by snapshotting and restoring.
	type statser interface {
		SetRunningStats(mean, varc *tensor.Tensor)
	}
	var rm, rv *tensor.Tensor
	if bn, ok := l.(*BatchNorm2D); ok {
		rm, rv = bn.RunningMean.Clone(), bn.RunningVar.Clone()
	}
	restore := func() {
		if bn, ok := l.(*BatchNorm2D); ok && rm != nil {
			bn.SetRunningStats(rm, rv)
		}
	}

	ZeroGrads(l.Params())
	y := l.Forward(x, mode)
	_, dy := scalarLoss(y)
	dx := l.Backward(dy)

	restore()
	numDX := numericalInputGrad(l, x, mode, 1e-2)
	diff := diffNorm(dx, numDX)
	ref := math.Max(numDX.Norm2(), 1e-8)
	if diff/ref > tol {
		t.Fatalf("%s: input gradient relative error %.4g (tol %.4g)", l.Name(), diff/ref, tol)
	}
	for _, p := range l.Params() {
		restore()
		numDP := numericalParamGrad(l, x, p, mode, 1e-2)
		diff := diffNorm(p.Grad, numDP)
		ref := math.Max(numDP.Norm2(), 1e-8)
		if diff/ref > tol {
			t.Fatalf("%s: param %s gradient relative error %.4g (tol %.4g)", l.Name(), p.Name, diff/ref, tol)
		}
	}
	restore()
}

func TestConv2DGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	conv := NewConv2D("conv", 2, 3, g, true, rng)
	x := tensor.New(2, 2, 5, 4)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, conv, x, Train, 2e-2)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}
	conv := NewConv2D("convs2", 3, 4, g, false, rng)
	x := tensor.New(1, 3, 7, 6)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, conv, x, Train, 2e-2)
}

func TestConv1x1Gradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	g := tensor.ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1}
	conv := NewConv2D("conv1x1", 4, 2, g, false, rng)
	x := tensor.New(2, 4, 3, 3)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, conv, x, Train, 2e-2)
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	lin := NewLinear("fc", 6, 4, rng)
	x := tensor.New(3, 6)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, lin, x, Train, 2e-2)
}

func TestReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	relu := NewReLU("relu")
	x := tensor.New(2, 3, 4, 2)
	// Keep values away from the kink for a stable finite difference.
	rng.FillUniform(x, 0.1, 1)
	for i, v := range x.Data {
		if int(v*1000)%2 == 0 {
			x.Data[i] = -v
		}
	}
	checkGrads(t, relu, x, Train, 2e-2)
}

func TestBatchNormGradientsTrainMode(t *testing.T) {
	rng := tensor.NewRNG(6)
	bn := NewBatchNorm2D("bn", 3)
	rng.FillUniform(bn.Gamma.Value, 0.5, 1.5)
	rng.FillUniform(bn.Beta.Value, -0.5, 0.5)
	x := tensor.New(2, 3, 4, 3)
	rng.FillNormal(x, 0.7, 1.3)
	checkGrads(t, bn, x, Train, 5e-2)
}

func TestBatchNormGradientsAdaptMode(t *testing.T) {
	rng := tensor.NewRNG(7)
	bn := NewBatchNorm2D("bn", 2)
	bn.AdaptMomentum = 1 // exact-gradient endpoint of the EMA family
	rng.FillUniform(bn.Gamma.Value, 0.5, 1.5)
	x := tensor.New(3, 2, 3, 4)
	rng.FillNormal(x, -0.3, 2.0)
	checkGrads(t, bn, x, Adapt, 5e-2)
}

func TestBatchNormGradientsEvalMode(t *testing.T) {
	rng := tensor.NewRNG(8)
	bn := NewBatchNorm2D("bn", 3)
	rng.FillUniform(bn.Gamma.Value, 0.5, 1.5)
	mean, varc := tensor.New(3), tensor.New(3)
	rng.FillUniform(mean, -1, 1)
	rng.FillUniform(varc, 0.5, 2)
	bn.SetRunningStats(mean, varc)
	x := tensor.New(2, 3, 3, 3)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, bn, x, Eval, 2e-2)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(9)
	p := NewMaxPool2D("pool", tensor.ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2})
	x := tensor.New(2, 2, 6, 4)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, p, x, Train, 2e-2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(10)
	p := NewGlobalAvgPool("gap")
	x := tensor.New(2, 3, 4, 5)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, p, x, Train, 2e-2)
	// Forward and Backward write layer scratch, as every layer's do.
	dy := tensor.New(2, 3)
	if a := testing.AllocsPerRun(5, func() { p.Forward(x, Train); p.Backward(dy) }); a != 0 {
		t.Fatalf("%.1f allocations per steady-state forward + backward", a)
	}
}

func TestSequentialGradients(t *testing.T) {
	rng := tensor.NewRNG(11)
	g := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	seq := NewSequential("net",
		NewConv2D("c1", 1, 2, g, false, rng),
		NewBatchNorm2D("bn1", 2),
		NewReLU("r1"),
		NewFlatten("flat"),
		NewLinear("fc", 2*4*3, 5, rng),
	)
	x := tensor.New(2, 1, 4, 3)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, seq, x, Eval, 3e-2)
}

func TestEntropyLossGradient(t *testing.T) {
	rng := tensor.NewRNG(12)
	logits := tensor.New(4, 6)
	rng.FillNormal(logits, 0, 1.5)
	_, grad := EntropyLoss(logits)
	num := tensor.New(4, 6)
	eps := float32(1e-2)
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := EntropyLoss(logits)
		logits.Data[i] = orig - eps
		lm, _ := EntropyLoss(logits)
		logits.Data[i] = orig
		num.Data[i] = float32((lp - lm) / (2 * float64(eps)))
	}
	diff := diffNorm(grad, num)
	if diff/math.Max(num.Norm2(), 1e-8) > 2e-2 {
		t.Fatalf("entropy gradient relative error %.4g", diff/num.Norm2())
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := tensor.NewRNG(13)
	logits := tensor.New(5, 4)
	rng.FillNormal(logits, 0, 1)
	targets := []int{0, 3, -1, 2, 1}
	_, grad := CrossEntropyRows(logits, targets)
	eps := float32(1e-2)
	num := tensor.New(5, 4)
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := CrossEntropyRows(logits, targets)
		logits.Data[i] = orig - eps
		lm, _ := CrossEntropyRows(logits, targets)
		logits.Data[i] = orig
		num.Data[i] = float32((lp - lm) / (2 * float64(eps)))
	}
	diff := diffNorm(grad, num)
	if diff/math.Max(num.Norm2(), 1e-8) > 2e-2 {
		t.Fatalf("cross-entropy gradient relative error %.4g", diff/num.Norm2())
	}
	// Ignored row must receive zero gradient.
	for j := 0; j < 4; j++ {
		if grad.At(2, j) != 0 {
			t.Fatal("ignored row has non-zero gradient")
		}
	}
}

func TestConfidenceLossGradient(t *testing.T) {
	rng := tensor.NewRNG(14)
	logits := tensor.New(3, 5)
	rng.FillNormal(logits, 0, 2)
	_, grad := ConfidenceLossInto(new(LossScratch), logits)
	eps := float32(5e-3)
	num := tensor.New(3, 5)
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := ConfidenceLossInto(new(LossScratch), logits)
		logits.Data[i] = orig - eps
		lm, _ := ConfidenceLossInto(new(LossScratch), logits)
		logits.Data[i] = orig
		num.Data[i] = float32((lp - lm) / (2 * float64(eps)))
	}
	diff := diffNorm(grad, num)
	if diff/math.Max(num.Norm2(), 1e-8) > 3e-2 {
		t.Fatalf("confidence gradient relative error %.4g", diff/num.Norm2())
	}
}
