package ufld_test

import (
	"testing"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// TestFrameLoopAllocationFree pins the paper loop's alternation —
// infer on a frame, then one LD-BN-ADAPT step on it, on the same
// model — at zero allocations per frame. TestInferForwardAllocationFree
// and adapt.TestStepAllocationFree each run one half alone; anything
// an Infer forward drops and the next Adapt forward has to rebuild
// (the per-element ReLU masks once were: 19 objects a frame) shows
// only when the two alternate. An external test package because adapt
// imports ufld.
func TestFrameLoopAllocationFree(t *testing.T) {
	cfg := ufld.Tiny(resnet.R18, 2)
	m := ufld.MustNewModel(cfg, tensor.NewRNG(3))
	x := tensor.New(1, 3, cfg.InputH, cfg.InputW)
	tensor.NewRNG(4).FillNormal(x, 0, 1)
	meth := adapt.NewLDBNAdapt(m, adapt.DefaultConfig())
	frame := func() {
		m.ForwardInfer(x)
		meth.Adapt(x)
	}
	for i := 0; i < adapt.DefaultConfig().WarmupSteps+1; i++ {
		frame() // grow scratch, create optimizer moments, pass the warm-up gate
	}
	if n := testing.AllocsPerRun(10, frame); n != 0 {
		t.Fatalf("infer + adapt step allocates %.1f objects per frame at steady state, want 0", n)
	}
}
