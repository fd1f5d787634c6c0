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

// TestStreamSnapshotAllocs pins the cost of copying a stream's state
// for a checkpoint or a migration: the struct, one BN slab and its
// views, and the two optimizer moment slices. An empty window adds
// nothing. Per-layer BN slices would cost four objects per layer.
func TestStreamSnapshotAllocs(t *testing.T) {
	st := newStreamState(testModel(7))
	allocs := testing.AllocsPerRun(50, func() { st.snapshot() })
	if allocs > 5 {
		t.Fatalf("snapshot allocates %.0f times, want <= 5", allocs)
	}
}

// TestStreamStateSlabLayout pins the BN slab's layout: the views alias
// the slab, the first half holds µ|σ² per layer in BatchNorms() order,
// and the second half is γ|β in BNParams() order — element for element
// the layout of the stream's optimizer state.
func TestStreamStateSlabLayout(t *testing.T) {
	m := testModel(7)
	st := newStreamState(m)
	half := len(st.slab) / 2
	if len(st.opt.M) != half {
		t.Fatalf("optimizer state holds %d values, slab half %d", len(st.opt.M), half)
	}
	same := func(view, want []float32, at int) bool {
		if len(view) != len(want) || &view[0] != &st.slab[at] {
			return false
		}
		for c := range want {
			if view[c] != want[c] {
				return false
			}
		}
		return true
	}
	off := 0
	for j, b := range m.BatchNorms() {
		if !same(st.bn[j].Mean, b.RunningMean.Data, off) || !same(st.bn[j].Var, b.RunningVar.Data, off+b.C) {
			t.Fatalf("layer %d statistics are not at slab offset %d", j, off)
		}
		off += 2 * b.C
	}
	for k, p := range m.BNParams() {
		view := st.bn[k/2].Gamma
		if k%2 == 1 {
			view = st.bn[k/2].Beta
		}
		if !same(view, p.Value.Data, off) {
			t.Fatalf("BN param %d is not at slab offset %d", k, off)
		}
		off += p.Value.Size()
	}
	if off != len(st.slab) {
		t.Fatalf("layout covers %d of %d slab values", off, len(st.slab))
	}
}
