package ufld_test

import (
	"runtime"
	"testing"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// liveMB is the live heap in MB after two collections.
func liveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// BenchmarkFullScaleFootprint measures what the paper's geometry holds:
// an untrained R-18 detector with 2 lanes at 288×800, one frame at a
// time. It reports the live heap above the starting point after the
// model and its input are built (built_MB), after one ForwardInfer
// (infer_MB), after one LD-BN-ADAPT step inside the warm-up, which
// refreshes the BN statistics by an Adapt forward and runs no backward
// (warmup_MB), and after one step past the warm-up gate, backward and
// update included (step_MB); then what one serving replica adds once
// it has done the same infer and full step (replica_MB). Each
// iteration rebuilds everything, so the timing is of no interest; run
// it with -benchtime 1x.
func BenchmarkFullScaleFootprint(b *testing.B) {
	cfg := ufld.FullScale(resnet.R18, 2)
	acfg := adapt.DefaultConfig()
	var built, inferred, warm, stepped, replica float64
	for i := 0; i < b.N; i++ {
		base := liveMB()
		m := ufld.MustNewModel(cfg, tensor.NewRNG(1))
		x := tensor.New(1, 3, cfg.InputH, cfg.InputW)
		tensor.NewRNG(2).FillNormal(x, 0, 1)
		built = liveMB() - base
		m.ForwardInfer(x)
		inferred = liveMB() - base
		step := adapt.NewStep(m, m.BNParams(), acfg)
		st := step.NewState()
		step.Run(x, nn.Adapt, &st, 0)
		warm = liveMB() - base
		step.Run(x, nn.Adapt, &st, acfg.WarmupSteps)
		stepped = liveMB() - base
		r := m.Replica()
		r.ForwardInfer(x)
		rstep := adapt.NewStep(r, r.BNParams(), acfg)
		rst := rstep.NewState()
		rstep.Run(x, nn.Adapt, &rst, acfg.WarmupSteps)
		replica = liveMB() - base - stepped
		runtime.KeepAlive(m)
		runtime.KeepAlive(r)
	}
	b.ReportMetric(built, "built_MB")
	b.ReportMetric(inferred, "infer_MB")
	b.ReportMetric(warm, "warmup_MB")
	b.ReportMetric(stepped, "step_MB")
	b.ReportMetric(replica, "replica_MB")
}
