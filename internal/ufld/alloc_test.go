package ufld

import (
	"math"
	"runtime"
	"testing"

	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
)

// TestInferForwardAllocationFree pins the serving fast path's
// allocation contract: after one warmup call has grown every
// layer-owned scratch buffer (and, on the int8 rung, quantized the
// weights), repeated Infer-mode forwards of the same shape perform
// zero heap allocations. This is what lets a worker replica serve
// frames for hours without GC pressure; the contract is documented in
// internal/nn/README.md and enforced fleet-wide by `make alloc-gate`.
func TestInferForwardAllocationFree(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, tensor.NewRNG(3))
	x := tensor.New(2, 3, cfg.InputH, cfg.InputW)
	tensor.NewRNG(4).FillNormal(x, 0, 1)

	m.ForwardInfer(x) // warmup: grow scratch outside the measurement
	if n := testing.AllocsPerRun(20, func() { m.ForwardInfer(x) }); n != 0 {
		t.Fatalf("ForwardInfer allocates %.1f objects per call at steady state, want 0", n)
	}
	m.ForwardInferInt8(x) // warmup: lazy weight quantization + int8 scratch
	if n := testing.AllocsPerRun(20, func() { m.ForwardInferInt8(x) }); n != 0 {
		t.Fatalf("ForwardInferInt8 allocates %.1f objects per call at steady state, want 0", n)
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
	measure("ForwardInfer", func() { m.ForwardInfer(x) })
	measure("ForwardInferInt8", func() { m.ForwardInferInt8(x) })
}
