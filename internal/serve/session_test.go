package serve

import (
	"math"
	"testing"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/stream"
)

// driveToCompletion steps a session in fixed epochs until it drains.
func driveToCompletion(t *testing.T, s *Session, epochMs float64) Report {
	t.Helper()
	for i := 0; !s.Done(); i++ {
		if i > 10000 {
			t.Fatal("session failed to drain in 10000 epochs")
		}
		s.RunEpoch(s.Now() + epochMs)
	}
	return s.Finish()
}

// migrationConfig is an underloaded single-worker deployment where
// every frame dispatches alone the instant it arrives (MaxBatch 1,
// 60 W ≫ 4 FPS), so a stream's dispatch history — and therefore its
// adaptation trajectory — is identical whether it is served by one
// board or handed off between two mid-run. WarmupSteps 1 makes the
// optimizer moments move, so state equality covers them too.
func migrationConfig() Config {
	acfg := adapt.DefaultConfig()
	acfg.WarmupSteps = 1
	return Config{
		Workers:    1,
		MaxBatch:   1,
		Window:     time.Millisecond,
		AdaptEvery: 3,
		Adapt:      acfg,
		Mode:       orin.Mode60W,
	}
}

// TestMigrationPreservesStreamState is the state-preservation pin for
// migration: a stream handed off between boards mid-run — mid
// adaptation window, even — must end with bitwise the same BN
// statistics, γ/β, optimizer moments and step count as the same
// stream served end-to-end on one board.
func TestMigrationPreservesStreamState(t *testing.T) {
	m := testModel(91)
	cfg := migrationConfig()
	fleet := SyntheticFleet(m.Cfg, 1, 12, 4, 17) // arrivals every 250 ms

	// Reference: one board serves the stream end to end.
	ref := New(m, cfg).NewSession(fleet)
	refRep := driveToCompletion(t, ref, 1000)
	if refRep.Frames != 12 {
		t.Fatalf("reference served %d frames, want 12", refRep.Frames)
	}
	if steps := refRep.Streams[0].AdaptSteps; steps != 4 {
		t.Fatalf("reference ran %d adaptation steps, want 4", steps)
	}

	// Migrated: board 1 serves frames 0–3, then the stream moves to
	// board 2 at the 1000 ms boundary — one frame into its third
	// adaptation window (AdaptEvery 3), so the handoff must carry the
	// open window, not just the BN snapshot.
	s1 := New(m, cfg).NewSession(fleet)
	s2 := New(m, cfg).NewSession(nil)
	s1.RunEpoch(1000)
	s2.RunEpoch(1000)
	h := s1.DetachStream(0)
	if h == nil {
		t.Fatal("detach returned nil despite 8 future frames")
	}
	if len(h.Source.Frames) != 8 {
		t.Fatalf("handoff carries %d frames, want 8", len(h.Source.Frames))
	}
	if h.sinceAdapt != 1 {
		t.Fatalf("handoff window position %d, want 1", h.sinceAdapt)
	}
	local := s2.AttachStream(h)
	for !s1.Done() || !s2.Done() {
		end := s1.Now() + 1000
		s1.RunEpoch(end)
		s2.RunEpoch(end)
	}
	rep1, rep2 := s1.Finish(), s2.Finish()
	if rep1.Frames != 4 || rep2.Frames != 8 {
		t.Fatalf("served %d + %d frames across boards, want 4 + 8", rep1.Frames, rep2.Frames)
	}
	if got := rep1.Streams[0].AdaptSteps + rep2.Streams[local].AdaptSteps; got != 4 {
		t.Fatalf("split run executed %d adaptation steps, want 4", got)
	}

	want, got := ref.states[0], s2.states[local]
	if want.steps != got.steps {
		t.Fatalf("step counters diverge: %d vs %d", got.steps, want.steps)
	}
	if want.opt.Step != got.opt.Step {
		t.Fatalf("optimizer steps diverge: %d vs %d", got.opt.Step, want.opt.Step)
	}
	for i := range want.opt.M {
		if want.opt.M[i] != got.opt.M[i] || want.opt.V[i] != got.opt.V[i] {
			t.Fatalf("optimizer moment %d diverges: m %g vs %g, v %g vs %g",
				i, got.opt.M[i], want.opt.M[i], got.opt.V[i], want.opt.V[i])
		}
	}
	for j := range want.bn {
		w, g := want.bn[j], got.bn[j]
		for c := range w.Mean {
			if w.Mean[c] != g.Mean[c] || w.Var[c] != g.Var[c] ||
				w.Gamma[c] != g.Gamma[c] || w.Beta[c] != g.Beta[c] {
				t.Fatalf("BN layer %d channel %d diverges after migration", j, c)
			}
		}
	}
}

// TestMigrationDeterministic: the split-board run is virtually
// deterministic — repeating it reproduces the same frame counts,
// energy and latency accounting bit for bit.
func TestMigrationDeterministic(t *testing.T) {
	m := testModel(92)
	cfg := migrationConfig()
	run := func() (Report, Report) {
		fleet := SyntheticFleet(m.Cfg, 2, 10, 4, 19)
		s1 := New(m, cfg).NewSession(fleet)
		s2 := New(m, cfg).NewSession(nil)
		s1.RunEpoch(1000)
		s2.RunEpoch(1000)
		if h := s1.DetachStream(1); h != nil {
			s2.AttachStream(h)
		}
		for !s1.Done() || !s2.Done() {
			end := s1.Now() + 1000
			s1.RunEpoch(end)
			s2.RunEpoch(end)
		}
		return s1.Finish(), s2.Finish()
	}
	a1, a2 := run()
	b1, b2 := run()
	for i, pair := range [][2]Report{{a1, b1}, {a2, b2}} {
		x, y := pair[0], pair[1]
		if x.Frames != y.Frames || x.BusyEnergyMJ != y.BusyEnergyMJ ||
			x.EnergyMJ != y.EnergyMJ || x.P99LatencyMs != y.P99LatencyMs {
			t.Fatalf("board %d run not deterministic: %+v vs %+v", i+1, x, y)
		}
	}
}

// TestDetachAccounting: a detach leaves already-queued frames to drain
// on the source board, moves exactly the future frames, and the two
// boards' telemetry still counts every arrival exactly once.
func TestDetachAccounting(t *testing.T) {
	m := testModel(93)
	cfg := migrationConfig()
	cfg.MaxBatch = 2
	fleet := SyntheticFleet(m.Cfg, 2, 12, 4, 23)
	total := 0
	for _, src := range fleet {
		total += len(src.Frames)
	}
	s1 := New(m, cfg).NewSession(fleet)
	s2 := New(m, cfg).NewSession(nil)
	s1.RunEpoch(500)
	s2.RunEpoch(500)
	h := s1.DetachStream(0)
	if h == nil {
		t.Fatal("nothing detached")
	}
	for _, fr := range h.Source.Frames {
		if float64(fr.Arrival)/1e6 < 500 {
			t.Fatalf("handoff frame arrives at %v, before the 500 ms boundary", fr.Arrival)
		}
	}
	s2.AttachStream(h)
	for !s1.Done() || !s2.Done() {
		end := s1.Now() + 500
		s1.RunEpoch(end)
		s2.RunEpoch(end)
	}
	rep1, rep2 := s1.Finish(), s2.Finish()
	if rep1.Frames+rep2.Frames != total {
		t.Fatalf("served %d + %d frames, want %d", rep1.Frames, rep2.Frames, total)
	}
	arrived := 0
	for _, es := range append(append([]EpochStats(nil), rep1.Epochs...), rep2.Epochs...) {
		if es.QueueDepth < 0 {
			t.Fatalf("negative backlog in epoch telemetry: %+v", es)
		}
		arrived += es.Arrived
	}
	if arrived != total {
		t.Fatalf("Σ epoch arrivals %d != fleet frames %d", arrived, total)
	}
	// A second detach of the same stream has nothing left to move.
	if h2 := s1.DetachStream(0); h2 != nil {
		t.Fatalf("re-detach returned %d frames, want nil", len(h2.Source.Frames))
	}
}

// TestDetachCompactsInPlace: a detach keeps the arrivals before the
// read position where they are and compacts the other streams' future
// arrivals, in order, into the same backing array, so a move copies
// no board's whole future.
func TestDetachCompactsInPlace(t *testing.T) {
	m := testModel(95)
	fleet := SyntheticFleet(m.Cfg, 3, 12, 4, 29)
	s := New(m, migrationConfig()).NewSession(fleet)
	s.RunEpoch(500)
	p := s.p
	before := append([]arrival(nil), p.all...)
	base, capBefore := &p.all[0], cap(p.all)
	if s.DetachStream(1) == nil {
		t.Fatal("nothing detached")
	}
	if &p.all[0] != base || cap(p.all) != capBefore {
		t.Fatal("DetachStream moved the arrival list to a new backing array")
	}
	want := before[:p.arrSeen:p.arrSeen]
	for _, a := range before[p.arrSeen:] {
		if a.stream != 1 {
			want = append(want, a)
		}
	}
	if len(p.all) != len(want) {
		t.Fatalf("%d arrivals kept, want %d", len(p.all), len(want))
	}
	for i := range want {
		if p.all[i].stream != want[i].stream || p.all[i].frame.Arrival != want[i].frame.Arrival {
			t.Fatalf("arrival %d is stream %d at %v, want stream %d at %v",
				i, p.all[i].stream, p.all[i].frame.Arrival, want[i].stream, want[i].frame.Arrival)
		}
	}
}

// TestSessionMatchesRunGoverned: driving a session by hand with fixed
// controls reproduces RunGoverned's report exactly — the Session API
// is the same machine, exposed.
func TestSessionMatchesRunGoverned(t *testing.T) {
	m := testModel(94)
	fleet := BurstyFleet(m.Cfg, 2, 2, 4, 12, 2, 30, 41)
	cfg := Config{
		Workers:    1,
		MaxBatch:   4,
		AdaptEvery: 3,
		Adapt:      adapt.DefaultConfig(),
		Mode:       orin.Mode30W,
		Policy:     stream.DropFrames,
	}
	want := New(m, cfg).RunGoverned(fleet, 250, fixedCtl{c: Controls{
		Mode: cfg.Mode, Policy: cfg.Policy, AdaptEvery: cfg.AdaptEvery,
	}})
	s := New(m, cfg).NewSession(fleet)
	got := driveToCompletion(t, s, 250)
	if got.Frames != want.Frames || got.Batches != want.Batches ||
		got.FramesDropped != want.FramesDropped || len(got.Epochs) != len(want.Epochs) {
		t.Fatalf("session diverges from RunGoverned: %d/%d/%d/%d vs %d/%d/%d/%d",
			got.Frames, got.Batches, got.FramesDropped, len(got.Epochs),
			want.Frames, want.Batches, want.FramesDropped, len(want.Epochs))
	}
	for name, pair := range map[string][2]float64{
		"virtual": {got.VirtualSeconds, want.VirtualSeconds},
		"energy":  {got.EnergyMJ, want.EnergyMJ},
		"p99":     {got.P99LatencyMs, want.P99LatencyMs},
		"miss":    {got.MissRate, want.MissRate},
	} {
		if diff := math.Abs(pair[0] - pair[1]); diff > 1e-9 {
			t.Fatalf("session %s %.9f != RunGoverned %.9f", name, pair[0], pair[1])
		}
	}
}
