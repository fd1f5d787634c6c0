package tensor

import "testing"

// Kernel benchmarks on the GEMM/lowering shapes the Tiny detector's
// heaviest conv layer feeds the pool (64 output channels, 64·3·3 taps,
// 28×28 output). Run them at `-cpu 1,4` for the worker-pool speedup
// curve per kernel; `make bench-smoke` executes each once so they
// cannot rot. The repo's end-to-end measurement is bench/
// (BENCHMARK.json).

const (
	bkM = 64  // output channels
	bkK = 576 // 64 input channels × 3×3 taps
	bkN = 784 // 28×28 output pixels
)

// BenchmarkKernelMatMul is the a·b product in the row kernel's stride
// mode, at each tier (benchRowTiers), in GMAC/s.
func BenchmarkKernelMatMul(b *testing.B) {
	rng := NewRNG(1)
	a := New(bkM, bkK)
	x := New(bkK, bkN)
	out := New(bkM, bkN)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(x, -1, 1)
	benchRowTiers(b, bkM*bkK*bkN, func() { MatMulInto(out, a, x) })
}

// BenchmarkKernelMatMulTB is the Linear-forward shape: a small serving
// batch against a wide weight matrix, which the pool bands over output
// features because the batch has fewer rows than workers.
func BenchmarkKernelMatMulTB(b *testing.B) {
	rng := NewRNG(2)
	a := New(4, 512)
	w := New(1024, 512)
	out := New(4, 1024)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(w, -1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTBInto(out, a, w)
	}
}

// BenchmarkKernelMatMulTA is the conv-backward dcols shape,
// Wᵀ[K,outC] · dY[outC, hw], at each tier like BenchmarkKernelMatMul;
// its GMAC/s include the transpose of W.
func BenchmarkKernelMatMulTA(b *testing.B) {
	rng := NewRNG(3)
	w := New(bkM, bkK)
	g := New(bkM, bkN)
	out := New(bkK, bkN)
	rng.FillUniform(w, -1, 1)
	rng.FillUniform(g, -1, 1)
	benchRowTiers(b, bkK*bkM*bkN, func() { MatMulTAInto(out, w, g) })
}

var bkGeom = ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}

func BenchmarkKernelIm2Col(b *testing.B) {
	rng := NewRNG(4)
	x := New(1, 64, 28, 28)
	rng.FillUniform(x, -1, 1)
	out := New(bkK, bkN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(out, x, bkGeom)
	}
}

// Small's conv stages, one sample each: the stride-1 3×3/p1 convs of
// layer 1 (6 channels of 48×120) and layer 3 (24 channels of 12×30),
// and layer 2's entry from 48×120 (6 → 12 channels, 3×3/s2/p1) with
// its 1×1/s2 shortcut. Each runs ConvInto's forward, ConvDXInto's
// input gradient and ConvDWAcc's weight gradient at each tier
// (benchRowTiers), in GMAC/s of the conv's own multiply-adds.
var bkConvStages = []struct {
	name            string
	inC, outC, h, w int
	g               ConvGeom
}{
	{"layer1", 6, 6, 48, 120, bkGeom},
	{"layer3", 24, 24, 12, 30, bkGeom},
	{"layer2-s2", 6, 12, 48, 120, ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}},
	{"layer2-shortcut", 6, 12, 48, 120, ConvGeom{KH: 1, KW: 1, SH: 2, SW: 2}},
}

// benchRowTiers times run at each kernel tier, "avx2" alone and
// "avx512" with the AVX-512 tier on (skipped where the host lacks one),
// and reports GMAC/s of its macs multiply-adds.
func benchRowTiers(b *testing.B, macs int, run func()) {
	for _, tier := range []string{"avx2", "avx512"} {
		b.Run(tier, func(b *testing.B) {
			restore, skip := rowTier(tier)
			if skip != "" {
				b.Skip(skip)
			}
			defer restore()
			run() // sizes the caller-owned state and spawns the pool's workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// benchConvStages runs one conv kernel over every stage, handing it
// the stage's input x, weight matrix wm [outC, K], its transpose wt
// and an output gradient g, all random.
func benchConvStages(b *testing.B, kernel func(x, wm, wt, g *Tensor, geom ConvGeom) func()) {
	for _, st := range bkConvStages {
		rng := NewRNG(8)
		oh, ow := st.g.OutSize(st.h, st.w)
		K := st.inC * st.g.KH * st.g.KW
		x, wm, wt, g := New(1, st.inC, st.h, st.w), New(st.outC, K), New(K, st.outC), New(st.outC, oh*ow)
		for _, t := range []*Tensor{x, wm, wt, g} {
			rng.FillUniform(t, -1, 1)
		}
		run := kernel(x, wm, wt, g, st.g)
		b.Run(st.name, func(b *testing.B) { benchRowTiers(b, K*st.outC*oh*ow, run) })
	}
}

func BenchmarkKernelConv(b *testing.B) {
	benchConvStages(b, func(x, wm, _, g *Tensor, geom ConvGeom) func() {
		out := New(g.Shape()...)
		var plane ConvPlane
		return func() { ConvInto(out, wm, x, geom, &plane) }
	})
}

func BenchmarkKernelConvDX(b *testing.B) {
	benchConvStages(b, func(x, _, wt, g *Tensor, geom ConvGeom) func() {
		dx := New(x.Shape()...)
		var lines ConvDXLines
		return func() { ConvDXInto(dx, wt, g, geom, &lines) }
	})
}

func BenchmarkKernelConvDW(b *testing.B) {
	benchConvStages(b, func(x, wm, _, g *Tensor, geom ConvGeom) func() {
		dw := New(wm.Shape()...)
		var lines ConvDWLines
		return func() { ConvDWAcc(dw, g, x, geom, &lines) }
	})
}

// BenchmarkKernelConvInt8 is ConvInto's int8 twin on the same stages:
// the weights and the sample are quantized once outside the loop, so
// the GMAC/s are ConvInt8Into's alone — the plane fill and the int8 row
// kernel at each tier.
func BenchmarkKernelConvInt8(b *testing.B) {
	benchConvStages(b, func(x, wm, _, g *Tensor, geom ConvGeom) func() {
		out := New(g.Shape()...)
		outC, K := wm.Shape()[0], wm.Shape()[1]
		wq, ws := make([]int8, outC*K), make([]float32, outC)
		QuantizeInt8PerRow(wq, ws, wm.Data, outC, K)
		xq := make([]int8, len(x.Data))
		xs := QuantizeInt8(xq, x.Data)
		c, h, w := x.Shape()[1], x.Shape()[2], x.Shape()[3]
		var plane ConvPlane
		return func() { ConvInt8Into(out, wq, ws, xq, xs, c, h, w, geom, &plane) }
	})
}

func BenchmarkKernelCol2Im(b *testing.B) {
	rng := NewRNG(5)
	cols := New(bkK, bkN)
	rng.FillUniform(cols, -1, 1)
	out := New(1, 64, 28, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Col2ImInto(out, cols, bkGeom)
	}
}

func BenchmarkKernelInt8MatMul(b *testing.B) {
	rng := NewRNG(6)
	af := New(bkM, bkK)
	xf := New(bkK, bkN)
	rng.FillUniform(af, -1, 1)
	rng.FillUniform(xf, -1, 1)
	a := make([]int8, bkM*bkK)
	aScales := make([]float32, bkM)
	QuantizeInt8PerRow(a, aScales, af.Data, bkM, bkK)
	x := make([]int8, bkK*bkN)
	xScale := QuantizeInt8(x, xf.Data)
	out := New(bkM, bkN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Int8MatMulInto(out, a, aScales, x, xScale, bkM, bkK, bkN)
	}
}

// The elementwise rows run at the size of Small's layer-1 activation
// (6 channels of 48×120 planes): the ReLU and residual kernels take
// the whole tensor in one call, the BN kernels one plane per call, as
// the layers drive them.
const (
	bkPlane = 48 * 120
	bkChans = 6
)

func benchElemOperands() (dst, a, b []float32) {
	rng := NewRNG(7)
	ta, tb := New(bkChans*bkPlane), New(bkChans*bkPlane)
	rng.FillUniform(ta, -1, 1)
	rng.FillUniform(tb, -1, 1)
	return make([]float32, bkChans*bkPlane), ta.Data, tb.Data
}

// BenchmarkKernelQuantizeInt8 quantizes one Small layer-1 activation,
// as InferInt8's conv does per sample before ConvInt8Into.
func BenchmarkKernelQuantizeInt8(b *testing.B) {
	_, x, _ := benchElemOperands()
	q := make([]int8, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeInt8(q, x)
	}
}

func BenchmarkKernelReLU(b *testing.B) {
	dst, x, _ := benchElemOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReLUInto(dst, x)
	}
}

func BenchmarkKernelAddReLU(b *testing.B) {
	dst, x, y := benchElemOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddReLUInto(dst, x, y)
	}
}

func BenchmarkKernelBNAffine(b *testing.B) {
	out, x, xhat := benchElemOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < bkChans; c++ {
			lo, hi := c*bkPlane, (c+1)*bkPlane
			BNAffineInto(out[lo:hi], xhat[lo:hi], x[lo:hi], 0.1, 1.7, 0.9, -0.2)
		}
	}
}

func BenchmarkKernelBNGrad(b *testing.B) {
	dx, g, xhat := benchElemOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < bkChans; c++ {
			lo, hi := c*bkPlane, (c+1)*bkPlane
			BNGradInto(dx[lo:hi], g[lo:hi], xhat[lo:hi], 0.3, bkPlane, 0.3, 1.5, -0.7)
		}
	}
}
