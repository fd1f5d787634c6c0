package ufld

import (
	"math"
	"runtime"
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
)

// allocCases are the forwards the allocation pins measure on m: both
// infer modes, an Eval forward, and one Train forward with the full
// backward (every parameter trainable, so each conv's dW re-lowers its
// input) — every mode writes layer scratch, so none allocates once a
// warm-up call has grown it (and, on the int8 rung, quantized the
// weights). Two cycles alternate the scratch classes at different
// batch sizes: a serve worker's, a model with only BN γ/β trainable
// running a batch-4 infer and then a one-frame Adapt forward, and the
// all-trainable m running a one-frame infer and then a Train forward
// and backward.
func allocCases(m *Model, x *tensor.Tensor) []struct {
	name string
	f    func()
} {
	g := tensor.New(x.Dim(0)*m.Cfg.Groups(), m.Cfg.Classes())
	tensor.NewRNG(5).FillNormal(g, 0, 1e-3)
	x1, x4 := tensor.New(1, 3, m.Cfg.InputH, m.Cfg.InputW), tensor.New(4, 3, m.Cfg.InputH, m.Cfg.InputW)
	tensor.NewRNG(6).FillNormal(x1, 0, 1)
	tensor.NewRNG(7).FillNormal(x4, 0, 1)
	g1 := tensor.New(m.Cfg.Groups(), m.Cfg.Classes())
	tensor.NewRNG(8).FillNormal(g1, 0, 1e-3)
	bn := MustNewModel(m.Cfg, tensor.NewRNG(9))
	nn.SetTrainable(bn.Params(), bn.BNParams())
	return []struct {
		name string
		f    func()
	}{
		{"ForwardInfer", func() { m.ForwardInfer(x) }},
		{"ForwardInferInt8", func() { m.ForwardInferInt8(x) }},
		{"Forward(Eval)", func() { m.Forward(x, nn.Eval) }},
		{"Forward(Train)+Backward", func() { m.Forward(x, nn.Train); m.Backward(g) }},
		{"BN-only ForwardInfer(b4)+Forward(Adapt, b1)", func() { bn.ForwardInfer(x4); bn.Forward(x1, nn.Adapt) }},
		{"ForwardInfer(b1)+Forward(Train, b1)+Backward", func() { m.ForwardInfer(x1); m.Forward(x1, nn.Train); m.Backward(g1) }},
	}
}

// TestInferForwardAllocationFree pins the forward allocation contract:
// after one warmup call has grown every layer-owned scratch buffer,
// repeated forwards of the same shape perform zero heap allocations in
// every mode. This is what lets a worker replica serve frames for
// hours without GC pressure, and source training and the ablations run
// without garbage; the contract is documented in
// internal/nn/README.md, and serve.TestSessionSteadyStateAllocs holds
// the serve loop around it below one allocation per served frame.
func TestInferForwardAllocationFree(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, tensor.NewRNG(3))
	x := tensor.New(2, 3, cfg.InputH, cfg.InputW)
	tensor.NewRNG(4).FillNormal(x, 0, 1)

	for _, c := range allocCases(m, x) {
		c.f() // warmup: grow scratch outside the measurement
		if n := testing.AllocsPerRun(20, c.f); n != 0 {
			t.Fatalf("%s allocates %.1f objects per call at steady state, want 0", c.name, n)
		}
	}
}

// TestInferForwardAllocationFreeParallel is the same pin with the
// worker pool engaged. testing.AllocsPerRun forces GOMAXPROCS to 1 —
// which makes par.For strictly serial and would bypass every pooled
// dispatch path — so this variant measures Mallocs deltas directly at
// GOMAXPROCS 4. Mallocs is process-wide and the runtime allocates on
// its own when the box is contended (`go test ./...` runs the other
// packages' binaries beside this one: 0.12 objects per call were read
// on two shared cores), so the pin reads the quietest of several
// windows and asks only that it stay under half an object per call: an
// allocation site on the forward path costs at least one object every
// call in every window, the runtime's strays do not.
func TestInferForwardAllocationFreeParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, tensor.NewRNG(3))
	x := tensor.New(2, 3, cfg.InputH, cfg.InputW)
	tensor.NewRNG(4).FillNormal(x, 0, 1)

	measure := func(name string, f func()) {
		t.Helper()
		for i := 0; i < 5; i++ {
			f() // warmup: grow scratch, shards, pooled task blocks, workers
		}
		const windows, runs = 8, 10
		quietest := math.Inf(1)
		for w := 0; w < windows && quietest > 0; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				f()
			}
			runtime.ReadMemStats(&after)
			quietest = math.Min(quietest, float64(after.Mallocs-before.Mallocs)/runs)
		}
		if quietest >= 0.5 {
			t.Fatalf("%s allocates %.2f objects per call at GOMAXPROCS 4 in its quietest window, want 0", name, quietest)
		}
	}
	for _, c := range allocCases(m, x) {
		measure(c.name, c.f)
	}
}
