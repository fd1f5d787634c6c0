package main

import (
	"math"
	"runtime"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/par"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// This file holds the layer probes: tight loops that time one public
// function of one layer at the shapes the workload's model has. They
// run in a traced run only, after the traced blocks.

// timeCalls returns the median ms of one call of f at the reference
// speed: one untimed call to grow scratch and fill lazy caches, then
// reps timed ones between two calibration samples.
func (e *env) timeCalls(reps int, f func()) float64 {
	f()
	before := e.cal.sample()
	ms := make([]float64, reps)
	for i := range ms {
		t0 := time.Now()
		f()
		ms[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ms) * speed(before, e.cal.sample())
}

// timeBatched is timeCalls for calls too short to time singly: each
// sample is the mean of inner back-to-back calls. Returns ms per call.
func (e *env) timeBatched(reps, inner int, f func()) float64 {
	return e.timeCalls(reps, func() {
		for i := 0; i < inner; i++ {
			f()
		}
	}) / float64(inner)
}

// allocsPerCall is the heap allocations of one call of f, averaged over
// n calls after one untimed call.
func allocsPerCall(n int, f func()) float64 {
	f()
	mark := memMark()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(memMark()-mark) / float64(n)
}

type emptyBody struct{}

func (emptyBody) Chunk(_, _, _ int) {}

func randn(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	rng.FillNormal(t, 0, 1)
	return t
}

// gemmMs times the forward product of a conv at its lowered shape.
func gemmMs(e *env, rng *tensor.RNG, c convSpec) float64 {
	oh, ow := c.out()
	a, b, o := randn(rng, c.outC, c.k()), randn(rng, c.k(), oh*ow), tensor.New(c.outC, oh*ow)
	return e.timeCalls(e.sz.probeReps, func() { tensor.MatMulInto(o, a, b) })
}

// probePar measures the worker pool: an empty dispatch at full width
// and what the pool buys the model's largest GEMM.
func probePar(e *env, cfg ufld.Config, out map[string]float64) {
	reps := e.sz.probeReps
	width := par.Width(math.MaxInt32, 1)
	out["par.width"] = float64(width)
	out["par.dispatch_us"] = 1e3 * e.timeBatched(reps, 1000, func() { par.For(width, 1, emptyBody{}) })
	big := shapesOf(cfg).largestConv()
	rng := tensor.NewRNG(e.seed)
	pooled := gemmMs(e, rng, big)
	prev := runtime.GOMAXPROCS(1)
	serial := gemmMs(e, rng, big)
	runtime.GOMAXPROCS(prev)
	out["par.matmul_scale"] = serial / pooled
}

// probeModel measures tensor, nn, resnet and ufld at the geometry of
// cfg: every conv, BatchNorm and linear layer of the detector stands
// alone here, built from its public constructor.
func probeModel(e *env, cfg ufld.Config, source *ufld.Model, ds *ufld.Dataset, out map[string]float64) {
	reps := e.sz.probeReps
	rng := tensor.NewRNG(e.seed)
	shapes := shapesOf(cfg)
	if err := shapes.checkAgainstDescribe(cfg); err != nil {
		e.failf("%v", err)
	}
	macs := float64(shapes.macs())
	out["tensor.macs_per_frame"] = macs

	// tensor: the four GEMM variants at the largest conv's shape.
	big := shapes.largestConv()
	{
		oh, ow := big.out()
		m, k, n := big.outC, big.k(), oh*ow
		bigMacs := float64(big.macs())
		wm, cols, gi := randn(rng, m, k), randn(rng, k, n), randn(rng, m, n)
		o, dcols, dw := tensor.New(m, n), tensor.New(k, n), tensor.New(m, k)
		gmacs := func(ms float64) float64 { return bigMacs / (ms * 1e6) }
		out["tensor.matmul_gmacs"] = gmacs(e.timeCalls(reps, func() { tensor.MatMulInto(o, wm, cols) }))
		out["tensor.matmul_ta_gmacs"] = gmacs(e.timeCalls(reps, func() { tensor.MatMulTAInto(dcols, wm, gi) }))
		out["tensor.matmul_tb_gmacs"] = gmacs(e.timeCalls(reps, func() { tensor.MatMulTBInto(dw, gi, cols) }))
		wq, ws := make([]int8, m*k), make([]float32, m)
		tensor.QuantizeInt8PerRow(wq, ws, wm.Data, m, k)
		cq := make([]int8, k*n)
		xs := tensor.QuantizeInt8(cq, cols.Data)
		out["tensor.int8_matmul_gmacs"] = gmacs(e.timeCalls(reps, func() { tensor.Int8MatMulInto(o, wq, ws, cq, xs, m, k, n) }))
	}

	// tensor and nn, layer by layer, one frame (batch 1) each.
	var gemmFwd, gemmBwd, convGemmFwd, im2col, col2im, lowerBytes, quant float64
	var convFwd, convInt8, convTrain, bnFwd, bnTrain, linFwd, linTrain float64
	for _, c := range shapes.convs {
		oh, ow := c.out()
		k, hw := c.k(), oh*ow
		wm, cols, gi := randn(rng, c.outC, k), randn(rng, k, hw), randn(rng, c.outC, hw)
		o, dcols, dw := tensor.New(c.outC, hw), tensor.New(k, hw), tensor.New(c.outC, k)
		x := randn(rng, 1, c.inC, c.h, c.w)
		xq := make([]int8, x.Size())
		fwd := e.timeCalls(reps, func() { tensor.MatMulInto(o, wm, cols) })
		gemmFwd += fwd
		convGemmFwd += fwd
		gemmBwd += e.timeCalls(reps, func() {
			tensor.MatMulTBInto(dw, gi, cols)
			tensor.MatMulTAInto(dcols, wm, gi)
		})
		im2col += e.timeCalls(reps, func() { tensor.Im2ColInto(cols, x, c.g) })
		col2im += e.timeCalls(reps, func() { tensor.Col2ImInto(x, dcols, c.g) })
		lowerBytes += 4 * float64(x.Size()+cols.Size())
		quant += e.timeCalls(reps, func() { tensor.QuantizeInt8(xq, x.Data) })

		layer := nn.NewConv2D(c.name, c.inC, c.outC, c.g, false, rng)
		grad := randn(rng, 1, c.outC, oh, ow)
		convFwd += e.timeCalls(reps, func() { layer.Forward(x, nn.Infer) })
		convInt8 += e.timeCalls(reps, func() { layer.Forward(x, nn.InferInt8) })
		convTrain += e.timeCalls(reps, func() {
			layer.Forward(x, nn.Adapt)
			layer.Backward(grad)
		})
	}
	for _, b := range shapes.bns {
		layer := nn.NewBatchNorm2D("bn", b.c)
		x, grad := randn(rng, 1, b.c, b.h, b.w), randn(rng, 1, b.c, b.h, b.w)
		bnFwd += e.timeCalls(reps, func() { layer.Forward(x, nn.Infer) })
		bnTrain += e.timeCalls(reps, func() {
			layer.Forward(x, nn.Adapt)
			layer.Backward(grad)
		})
	}
	for _, l := range shapes.lins {
		w, x, grad := randn(rng, l.out, l.in), randn(rng, 1, l.in), randn(rng, 1, l.out)
		o, dw, dx := tensor.New(1, l.out), tensor.New(l.out, l.in), tensor.New(1, l.in)
		xq := make([]int8, l.in)
		gemmFwd += e.timeCalls(reps, func() { tensor.MatMulTBInto(o, x, w) })
		gemmBwd += e.timeCalls(reps, func() {
			tensor.MatMulTAInto(dw, grad, x)
			tensor.MatMulInto(dx, grad, w)
		})
		quant += e.timeCalls(reps, func() { tensor.QuantizeInt8(xq, x.Data) })
		layer := nn.NewLinear(l.name, l.in, l.out, rng)
		linFwd += e.timeCalls(reps, func() { layer.Forward(x, nn.Infer) })
		linTrain += e.timeCalls(reps, func() {
			layer.Forward(x, nn.Adapt)
			layer.Backward(grad)
		})
	}
	out["tensor.gemm_fwd_ms_per_frame"] = gemmFwd
	out["tensor.gemm_bwd_ms_per_frame"] = gemmBwd
	out["tensor.im2col_ms_per_frame"] = im2col
	out["tensor.col2im_ms_per_frame"] = col2im
	out["tensor.lower_gbs"] = lowerBytes / (im2col * 1e6) // bytes computed from tensor sizes
	out["tensor.quantize_us_per_frame"] = 1e3 * quant
	logits := randn(rng, cfg.Groups(), cfg.Classes())
	out["tensor.softmax_us"] = 1e3 * e.timeCalls(reps, func() { tensor.RowEntropy(tensor.SoftmaxRows(logits)) })
	out["nn.entropy_loss_us"] = 1e3 * e.timeCalls(reps, func() { nn.EntropyLoss(logits) })
	out["nn.conv_fwd_ms_per_frame"] = convFwd
	out["nn.conv_int8_ms_per_frame"] = convInt8
	out["nn.conv_train_ms_per_frame"] = convTrain
	out["nn.bn_fwd_ms_per_frame"] = bnFwd
	out["nn.bn_train_ms_per_frame"] = bnTrain
	out["nn.linear_fwd_ms_per_frame"] = linFwd
	out["nn.linear_train_ms_per_frame"] = linTrain
	out["nn.conv_over_gemm"] = convFwd / (convGemmFwd + im2col)

	// ufld and resnet: the assembled detector in a tight loop, with no
	// adaptation step interleaved.
	m := source.Clone(tensor.NewRNG(1))
	batch := func(n int) *tensor.Tensor {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i % ds.Len()
		}
		return ufld.Images(cfg, ds.Samples, idx)
	}
	x1, x4, x8 := batch(1), batch(4), batch(8)
	hot := e.timeCalls(3*reps, func() { m.ForwardInfer(x1) })
	out["ufld.infer_hot_ms_p50"] = hot
	out["ufld.infer_allocs"] = allocsPerCall(10, func() { m.ForwardInfer(x1) })
	out["ufld.infer_gmacs"] = macs / (hot * 1e6)
	out["ufld.infer_b4_ms_per_frame"] = e.timeCalls(reps, func() { m.ForwardInfer(x4) }) / 4
	out["ufld.infer_b8_ms_per_frame"] = e.timeCalls(reps, func() { m.ForwardInfer(x8) }) / 8
	out["ufld.infer_int8_ms_p50"] = e.timeCalls(reps, func() { m.ForwardInferInt8(x1) })
	out["nn.shadow_cover"] = (convFwd + bnFwd + linFwd) / hot
	backbone := resnet.New(cfg.Backbone, rng)
	bb := e.timeCalls(reps, func() { backbone.Forward(x1, nn.Infer) })
	out["resnet.backbone_fwd_ms"] = bb
	out["resnet.backbone_share"] = bb / hot
}

// probeAdapt measures LD-BN-ADAPT steps past their warm-up (so the
// backward pass runs): batch 4, and the allocations of a batch-1 step.
func probeAdapt(e *env, source *ufld.Model, ds *ufld.Dataset, out map[string]float64) {
	cfg := source.Cfg
	idx := []int{0, 1 % ds.Len(), 2 % ds.Len(), 3 % ds.Len()}
	x4 := ufld.Images(cfg, ds.Samples, idx)
	x1 := ufld.Images(cfg, ds.Samples, idx[:1])
	meth := adapt.NewLDBNAdapt(source.Clone(tensor.NewRNG(1)), adapt.DefaultConfig())
	for i := 0; i < adapt.DefaultConfig().WarmupSteps; i++ {
		meth.Adapt(x4)
	}
	out["adapt.step_b4_ms_p50"] = e.timeCalls(e.sz.probeReps, func() { meth.Adapt(x4) })
	out["adapt.step_allocs"] = allocsPerCall(4, func() { meth.Adapt(x1) })
}

// probeCarlane measures scene rendering, the bulk of set-up's dataset
// synthesis.
func probeCarlane(e *env, cfg ufld.Config, out map[string]float64) {
	const n = 8
	out["carlane.render_ms_per_frame"] = e.timeCalls(e.sz.probeReps, func() {
		carlane.Generate(cfg, carlane.SplitSpec{
			Name: "bench/probe", Layouts: []carlane.Layout{carlane.Ego2},
			Domains: []carlane.Domain{carlane.MoReal}, N: n, Seed: e.seed,
		})
	}) / n
}
