package serve

import (
	"math"
	"runtime"
	"testing"

	"ldbnadapt/internal/adapt"
)

// TestSessionSteadyStateAllocs pins the serve loop's allocation
// contract: past warm-up, one Session.RunEpoch allocates only its
// epoch-boundary telemetry and the occasional amortized arena or
// scratch growth — never anything per served frame. Four streams at
// 30 FPS in 100 ms epochs serve 12 frames per epoch, and the budget is
// those 12: a single new allocation site on the per-frame path
// (assembly, forward, decode, scoring, the adaptation window) adds 12
// objects to every epoch of every window and fails it. Measured: 6.2–7.6
// objects per epoch per window on a shared 2-vCPU host. The warm-up
// covers the epochs that grow the arena, the worker scratch and, once
// the adaptation warm-up ends, each worker's backward buffers (~5 000,
// ~420 and ~545 objects in single epochs).
//
// Mallocs is process-wide, so — like
// ufld.TestInferForwardAllocationFreeParallel — the pin reads the
// quietest of several windows: the runtime's own strays land in some
// windows, a per-frame allocation lands in all of them.
func TestSessionSteadyStateAllocs(t *testing.T) {
	const (
		streams = 4
		fps     = 30.0
		epochMs = 100.0
		warmup  = 12
		windows = 5
		runs    = 4
	)
	perEpoch := int(fps * epochMs / 1000) // frames per stream per epoch
	served := streams * perEpoch * (warmup + windows*runs)
	budget := float64(streams * perEpoch)

	m := testModel(7)
	fleet := SyntheticFleet(m.Cfg, streams, (warmup+windows*runs+1)*perEpoch, fps, 7)
	s := New(m, Config{
		Workers:    2,
		MaxBatch:   8,
		AdaptEvery: 4,
		Adapt:      adapt.DefaultConfig(),
	}).NewSession(fleet)

	end := 0.0
	for i := 0; i < warmup; i++ {
		end += epochMs
		s.RunEpoch(end)
	}
	quietest := math.Inf(1)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			end += epochMs
			s.RunEpoch(end)
		}
		runtime.ReadMemStats(&after)
		quietest = math.Min(quietest, float64(after.Mallocs-before.Mallocs)/runs)
	}
	if rep := s.Finish(); rep.Frames != served {
		t.Fatalf("session served %d frames, want %d", rep.Frames, served)
	}
	if quietest >= budget {
		t.Fatalf("RunEpoch allocates %.1f objects per epoch in its quietest window, want < %.0f (one per served frame)", quietest, budget)
	}
	t.Logf("%.2f allocs/epoch in the quietest window (budget %.0f)", quietest, budget)
}
