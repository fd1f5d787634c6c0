package nn

import (
	"fmt"
	"math"

	"ldbnadapt/internal/par"
	"ldbnadapt/internal/tensor"
)

// bnParMin gates the BN parallel paths, in tensor elements. BN is a
// pure memory-bound pass (one multiply-add per element), so the
// break-even is the same order as the lowering kernels', not the
// GEMMs'. A var so the bitwise suite can force banding on tiny shapes.
var bnParMin = 1 << 17

// BatchNorm2D normalizes each channel of an NCHW tensor. It is the
// centrepiece of LD-BN-ADAPT: the paper's adaptation recomputes the
// normalization statistics (µ, σ) from unlabeled target batches and
// optimizes only the affine scale (γ) and shift (β) with one entropy
// backprop pass.
//
// Modes:
//   - Train: normalize by batch stats, update running stats with
//     Momentum.
//   - Eval:  normalize by running stats.
//   - Adapt: normalize by batch stats (the paper's step (i)) and
//     refresh running stats with AdaptMomentum so later Eval passes
//     operate in the target domain.
//
// Parallel decomposition: every pass (statistics, normalize, infer and
// backward) bands over channels, and each channel's float64/float32
// reduction runs in the exact serial order. That is a pure
// output-ownership split, so results are bitwise identical at any
// worker count. The per-element arithmetic of
// the normalize, infer and dX passes is tensor.BNAffineInto/BNGradInto.
type BatchNorm2D struct {
	name string
	C    int
	// Eps is the variance-stabilizing constant.
	Eps float32
	// Momentum is the running-stat EMA factor in Train mode.
	Momentum float32
	// AdaptMomentum is the running-stat EMA factor in Adapt mode.
	AdaptMomentum float32

	Gamma *Param // scale γ, [C]
	Beta  *Param // shift β, [C]

	// RunningMean and RunningVar are the inference statistics.
	RunningMean *tensor.Tensor // [C]
	RunningVar  *tensor.Tensor // [C]

	// Backward caches.
	lastXHat     *tensor.Tensor
	lastMode     Mode
	lastShape    [4]int
	lastAdaptMom float32

	// Infer-mode state: optional per-sample statistics sources
	// (multi-stream batched serving). The infer forward normalizes in
	// place and owns no output buffer.
	sampleSrc []*BNSource

	// Train/Eval/Adapt scratch (see scratch.go): output, x̂ cache and
	// the per-channel statistics buffers, reused across forwards. In a
	// planned model the output and dX are arena slots (see Arena); x̂,
	// which Backward reads, stays the layer's own.
	bpOut     Scratch
	bpXHat    Scratch
	meanBuf   []float32
	varBuf    []float32
	invStdBuf []float32
	dxOut     Scratch // backward input gradient (all modes)

	// Layer-embedded parallel bodies (zero-alloc dispatch; see
	// internal/par). Their slice fields are set before each For and
	// nilled after, so no tensor data is retained between calls.
	statsBody bnStatsBody
	normBody  bnNormBody
	inferBody bnInferBody
	bwdBody   bnBwdBody
}

// BNSource supplies the complete normalization state of one stream for
// Infer-mode forwards: the multi-stream serving engine coalesces frames
// from different camera streams into one batched forward pass, and each
// stream carries its own adapted statistics and affine parameters.
type BNSource struct {
	// Mean, Var are the stream's running statistics, [C].
	Mean, Var []float32
	// Gamma, Beta are the stream's adapted affine parameters, [C].
	Gamma, Beta []float32
}

// NewBatchNorm2D constructs a BN layer with γ=1, β=0, running stats
// (0, 1).
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	return &BatchNorm2D{
		name:          name,
		C:             c,
		Eps:           1e-5,
		Momentum:      0.1,
		AdaptMomentum: 0.3,
		Gamma:         NewParam(name+".gamma", tensor.Ones(c)),
		Beta:          NewParam(name+".beta", tensor.New(c)),
		RunningMean:   tensor.New(c),
		RunningVar:    tensor.Ones(c),
	}
}

// Replica returns a BN layer for another goroutine with a copy of b's
// state: γ, β, running statistics, Eps and both momenta, owned by the
// replica (which adapts them on its own), with no Grad and empty
// scratch.
func (b *BatchNorm2D) Replica() *BatchNorm2D {
	return &BatchNorm2D{
		name:          b.name,
		C:             b.C,
		Eps:           b.Eps,
		Momentum:      b.Momentum,
		AdaptMomentum: b.AdaptMomentum,
		Gamma:         NewParam(b.Gamma.Name, b.Gamma.Value.Clone()),
		Beta:          NewParam(b.Beta.Name, b.Beta.Value.Clone()),
		RunningMean:   b.RunningMean.Clone(),
		RunningVar:    b.RunningVar.Clone(),
	}
}

// Name returns the layer identifier.
func (b *BatchNorm2D) Name() string { return b.name }

// Params returns γ and β.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// HasTrainable reports whether γ or β is unfrozen.
func (b *BatchNorm2D) HasTrainable() bool { return !b.Gamma.Frozen || !b.Beta.Frozen }

// SetSampleSources installs per-sample normalization state for
// subsequent Infer-mode forwards: sample i is normalized with src[i]
// instead of the layer's own running statistics and γ/β. Pass nil to
// restore the layer's own state. Modes other than Infer panic while
// sources are installed, so adaptation passes cannot silently pick up
// another stream's state.
func (b *BatchNorm2D) SetSampleSources(src []*BNSource) { b.sampleSrc = src }

// forChannels runs body over the channels [0, C), banded over the
// worker pool once the tensor holds bnParMin elements.
func (b *BatchNorm2D) forChannels(elems int, body par.Body) {
	if elems >= bnParMin {
		par.For(b.C, 1, body)
	} else {
		body.Chunk(0, 0, b.C)
	}
}

// bnStatsBody computes per-channel batch statistics and the running
// EMA update for channels [clo,chi). Each channel's two float64
// reductions walk samples in order — exactly the serial loop — and a
// channel's running stats are touched by exactly one band.
//
// A reduction is one dependent add per element, so a lone chain runs
// at the adder's latency, not its throughput. stats4 therefore walks
// four channels abreast: four independent chains, each adding its own
// channel's values in the order stats1 would, so every sum keeps its
// bits; the band's last C mod 4 channels go through stats1.
type bnStatsBody struct {
	b     *BatchNorm2D
	x     []float32
	n, hw int
	mom   float32
}

func (t *bnStatsBody) Chunk(_, clo, chi int) {
	c := clo
	for ; c+4 <= chi; c += 4 {
		t.stats4(c)
	}
	for ; c < chi; c++ {
		t.stats1(c)
	}
}

func (t *bnStatsBody) stats1(c int) {
	cnt := float64(t.n * t.hw)
	s := 0.0
	for ni := 0; ni < t.n; ni++ {
		base := (ni*t.b.C + c) * t.hw
		for _, v := range t.x[base : base+t.hw] {
			s += float64(v)
		}
	}
	m := s / cnt
	v := 0.0
	for ni := 0; ni < t.n; ni++ {
		base := (ni*t.b.C + c) * t.hw
		for _, xv := range t.x[base : base+t.hw] {
			d := float64(xv) - m
			v += d * d
		}
	}
	t.store(c, m, v/cnt)
}

// planes4 returns the hw-element planes of channels c..c+3 of sample
// ni (adjacent in NCHW), all cut to one length for the compiler.
func planes4(x []float32, ni, channels, c, hw int) (x0, x1, x2, x3 []float32) {
	x = x[(ni*channels+c)*hw:]
	return x[:hw], x[hw : 2*hw][:hw], x[2*hw : 3*hw][:hw], x[3*hw : 4*hw][:hw]
}

func (t *bnStatsBody) stats4(c int) {
	cnt := float64(t.n * t.hw)
	var s0, s1, s2, s3 float64
	for ni := 0; ni < t.n; ni++ {
		x0, x1, x2, x3 := planes4(t.x, ni, t.b.C, c, t.hw)
		for i, v := range x0 {
			s0 += float64(v)
			s1 += float64(x1[i])
			s2 += float64(x2[i])
			s3 += float64(x3[i])
		}
	}
	m0, m1, m2, m3 := s0/cnt, s1/cnt, s2/cnt, s3/cnt
	var v0, v1, v2, v3 float64
	for ni := 0; ni < t.n; ni++ {
		x0, x1, x2, x3 := planes4(t.x, ni, t.b.C, c, t.hw)
		for i, xv := range x0 {
			d0 := float64(xv) - m0
			v0 += d0 * d0
			d1 := float64(x1[i]) - m1
			v1 += d1 * d1
			d2 := float64(x2[i]) - m2
			v2 += d2 * d2
			d3 := float64(x3[i]) - m3
			v3 += d3 * d3
		}
	}
	t.store(c, m0, v0/cnt)
	t.store(c+1, m1, v1/cnt)
	t.store(c+2, m2, v2/cnt)
	t.store(c+3, m3, v3/cnt)
}

// store records channel c's batch mean and variance and folds them
// into the running statistics.
func (t *bnStatsBody) store(c int, mean, variance float64) {
	b := t.b
	b.meanBuf[c] = float32(mean)
	b.varBuf[c] = float32(variance)
	b.RunningMean.Data[c] = (1-t.mom)*b.RunningMean.Data[c] + t.mom*b.meanBuf[c]
	b.RunningVar.Data[c] = (1-t.mom)*b.RunningVar.Data[c] + t.mom*b.varBuf[c]
}

// bnNormBody writes x̂ and the affine output for channels [clo,chi).
type bnNormBody struct {
	b            *BatchNorm2D
	x, xhat, out []float32
	mean, invStd []float32
	n, hw        int
}

func (t *bnNormBody) Chunk(_, clo, chi int) {
	b := t.b
	for ni := 0; ni < t.n; ni++ {
		for c := clo; c < chi; c++ {
			base := (ni*b.C + c) * t.hw
			tensor.BNAffineInto(t.out[base:base+t.hw], t.xhat[base:base+t.hw], t.x[base:base+t.hw],
				t.mean[c], t.invStd[c], b.Gamma.Value.Data[c], b.Beta.Value.Data[c])
		}
	}
}

// Forward normalizes x according to the mode: the infer modes in place
// over x, which they return, and Train, Eval and Adapt into layer
// scratch, keeping x̂ for Backward.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != b.C {
		panic(fmt.Sprintf("nn: %s: input %v, want [n,%d,h,w]", b.name, x.Shape(), b.C))
	}
	if b.sampleSrc != nil && !mode.IsInfer() {
		panic(fmt.Sprintf("nn: %s: sample sources installed but mode is %v", b.name, mode))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	elems := n * b.C * hw
	if mode.IsInfer() {
		return b.forwardInfer(x, n, h, w)
	}
	out := b.bpOut.For(n, b.C, h, w)
	b.lastMode = mode
	b.lastShape = [4]int{n, b.C, h, w}

	var mean, varc []float32
	switch mode {
	case Eval:
		mean = b.RunningMean.Data
		varc = b.RunningVar.Data
	case Train, Adapt:
		b.meanBuf = growF32(b.meanBuf, b.C)
		b.varBuf = growF32(b.varBuf, b.C)
		mean = b.meanBuf
		varc = b.varBuf
		mom := b.Momentum
		if mode == Adapt {
			mom = b.AdaptMomentum
		}
		st := &b.statsBody
		*st = bnStatsBody{b: b, x: x.Data, n: n, hw: hw, mom: mom}
		b.forChannels(elems, st)
		st.x = nil
		if mode == Adapt {
			// LD-BN-ADAPT normalizes with the just-refreshed running
			// statistics: an exponential moving average over the
			// unlabeled target stream. With AdaptMomentum = 1 this is
			// exactly the batch statistics (TENT's choice); smaller
			// values trade reactivity for stability, which matters at
			// batch size 1 where single-image statistics are noisy.
			mean = b.RunningMean.Data
			varc = b.RunningVar.Data
			b.lastAdaptMom = mom
		}
	default:
		panic(fmt.Sprintf("nn: %s: unknown mode %v", b.name, mode))
	}

	b.invStdBuf = growF32(b.invStdBuf, b.C)
	invStd := b.invStdBuf
	xhat := b.bpXHat.For(n, b.C, h, w)
	for c := 0; c < b.C; c++ {
		invStd[c] = float32(1.0 / math.Sqrt(float64(varc[c])+float64(b.Eps)))
	}
	nb := &b.normBody
	*nb = bnNormBody{b: b, x: x.Data, xhat: xhat.Data, out: out.Data, mean: mean, invStd: invStd, n: n, hw: hw}
	b.forChannels(elems, nb)
	nb.x, nb.xhat, nb.out, nb.mean, nb.invStd = nil, nil, nil, nil, nil
	b.lastXHat = xhat
	return out
}

// bnInferBody normalizes channels [clo,chi) of x in place with
// Eval-mode arithmetic, resolving each sample's statistics source
// independently.
type bnInferBody struct {
	b     *BatchNorm2D
	x     []float32
	n, hw int
}

func (t *bnInferBody) Chunk(_, clo, chi int) {
	b := t.b
	for ni := 0; ni < t.n; ni++ {
		mean, varc := b.RunningMean.Data, b.RunningVar.Data
		gamma, beta := b.Gamma.Value.Data, b.Beta.Value.Data
		if b.sampleSrc != nil {
			src := b.sampleSrc[ni]
			mean, varc, gamma, beta = src.Mean, src.Var, src.Gamma, src.Beta
		}
		for c := clo; c < chi; c++ {
			base := (ni*b.C + c) * t.hw
			is := float32(1.0 / math.Sqrt(float64(varc[c])+float64(b.Eps)))
			plane := t.x[base : base+t.hw]
			tensor.BNAffineInto(plane, nil, plane, mean[c], is, gamma[c], beta[c])
		}
	}
}

// forwardInfer is the serving fast path: Eval-mode arithmetic (bitwise
// identical per sample) without the x̂ backward cache, normalizing x in
// place (like ReLU's infer clamp: the input is an upstream layer's
// infer output that nothing reads again) and returning it. When sample
// sources are installed each sample is normalized with its own
// stream's statistics and γ/β.
func (b *BatchNorm2D) forwardInfer(x *tensor.Tensor, n, h, w int) *tensor.Tensor {
	if b.sampleSrc != nil && len(b.sampleSrc) != n {
		panic(fmt.Sprintf("nn: %s: %d sample sources for batch of %d", b.name, len(b.sampleSrc), n))
	}
	hw := h * w
	b.lastXHat = nil // Backward after an Infer forward must panic
	ib := &b.inferBody
	*ib = bnInferBody{b: b, x: x.Data, n: n, hw: hw}
	b.forChannels(n*b.C*hw, ib)
	ib.x = nil
	return x
}

// bnBwdBody runs the full per-channel backward for channels [clo,chi):
// the Σ dY and Σ dY·x̂ reductions (serial sample order), the γ/β
// gradient accumulation (one band per channel) and the dX write. Like
// the statistics, the reductions run four channels abreast (sums4)
// with the remainder through sums1, each chain in unchanged order.
type bnBwdBody struct {
	b             *BatchNorm2D
	grad, dx      []float32
	n, hw         int
	cnt, statsMom float32
}

func (t *bnBwdBody) Chunk(_, clo, chi int) {
	c := clo
	for ; c+4 <= chi; c += 4 {
		sumDY, sumDYX := t.sums4(c)
		for j := range sumDY {
			t.finish(c+j, sumDY[j], sumDYX[j])
		}
	}
	for ; c < chi; c++ {
		sumDY, sumDYX := t.sums1(c)
		t.finish(c, sumDY, sumDYX)
	}
}

func (t *bnBwdBody) sums1(c int) (sumDY, sumDYX float32) {
	b := t.b
	for ni := 0; ni < t.n; ni++ {
		base := (ni*b.C + c) * t.hw
		gs := t.grad[base : base+t.hw]
		hs := b.lastXHat.Data[base : base+t.hw]
		for i, g := range gs {
			sumDY += g
			sumDYX += g * hs[i]
		}
	}
	return sumDY, sumDYX
}

func (t *bnBwdBody) sums4(c int) (sumDY, sumDYX [4]float32) {
	var s0, s1, s2, s3, p0, p1, p2, p3 float32
	for ni := 0; ni < t.n; ni++ {
		g0, g1, g2, g3 := planes4(t.grad, ni, t.b.C, c, t.hw)
		h0, h1, h2, h3 := planes4(t.b.lastXHat.Data, ni, t.b.C, c, t.hw)
		for i, g := range g0 {
			s0 += g
			p0 += g * h0[i]
			s1 += g1[i]
			p1 += g1[i] * h1[i]
			s2 += g2[i]
			p2 += g2[i] * h2[i]
			s3 += g3[i]
			p3 += g3[i] * h3[i]
		}
	}
	return [4]float32{s0, s1, s2, s3}, [4]float32{p0, p1, p2, p3}
}

// finish accumulates channel c's dβ/dγ (unless frozen) and writes its
// dX from the two sums.
func (t *bnBwdBody) finish(c int, sumDY, sumDYX float32) {
	b := t.b
	if !b.Beta.Frozen {
		b.Beta.Grad.Data[c] += sumDY
	}
	if !b.Gamma.Frozen {
		b.Gamma.Grad.Data[c] += sumDYX
	}
	g, is := b.Gamma.Value.Data[c], b.invStdBuf[c]
	if b.lastMode == Eval {
		scale := g * is
		for ni := 0; ni < t.n; ni++ {
			base := (ni*b.C + c) * t.hw
			gs := t.grad[base : base+t.hw]
			ds := t.dx[base : base+t.hw]
			for i, gv := range gs {
				ds[i] = scale * gv
			}
		}
		return
	}
	k := g * is / t.cnt
	for ni := 0; ni < t.n; ni++ {
		base := (ni*b.C + c) * t.hw
		tensor.BNGradInto(t.dx[base:base+t.hw], t.grad[base:base+t.hw], b.lastXHat.Data[base:base+t.hw],
			k, t.cnt, t.statsMom, sumDY, sumDYX)
	}
}

// Backward returns dX and accumulates dγ, dβ (each unless frozen; the
// two reductions feed dX either way).
//
// In Train/Adapt mode the batch statistics depend on the input, so the
// full BN gradient is used:
//
//	dX = (γ·invStd/N)·(N·dY − Σ dY − x̂·Σ(dY·x̂))
//
// In Eval mode the statistics are constants and dX = γ·invStd·dY.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", b.name))
	}
	n, h, w := b.lastShape[0], b.lastShape[2], b.lastShape[3]
	hw := h * w
	if grad.Size() != n*b.C*hw {
		panic(fmt.Sprintf("nn: %s: grad %v, want %v", b.name, grad.Shape(), b.lastShape))
	}
	dx := b.dxOut.For(n, b.C, h, w)
	// The statistics-dependence correction terms are weighted by how
	// much the current batch influenced the normalization statistics:
	// 1 in Train mode (pure batch stats), AdaptMomentum in Adapt mode
	// (EMA-blended stats). Train mode stays the exact BN gradient;
	// Adapt mode interpolates between the exact train (mom=1) and
	// frozen-stats eval (mom=0) endpoints.
	statsMom := float32(1)
	if b.lastMode == Adapt {
		statsMom = b.lastAdaptMom
	}
	// Allocate the accumulators here: the bands below write them.
	if !b.Gamma.Frozen {
		b.Gamma.EnsureGrad()
	}
	if !b.Beta.Frozen {
		b.Beta.EnsureGrad()
	}
	bw := &b.bwdBody
	*bw = bnBwdBody{b: b, grad: grad.Data, dx: dx.Data, n: n, hw: hw, cnt: float32(n * hw), statsMom: statsMom}
	b.forChannels(n*b.C*hw, bw)
	bw.grad, bw.dx = nil, nil
	return dx
}

// SetRunningStats overwrites the running statistics (used by tests and
// by the stats-reset ablation).
func (b *BatchNorm2D) SetRunningStats(mean, varc *tensor.Tensor) {
	b.RunningMean.CopyFrom(mean)
	b.RunningVar.CopyFrom(varc)
}
