package shard

import (
	"testing"

	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/ufld"
)

// TestParsePlan covers the chaos-spec grammar and its error paths.
func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("kill:hot@12, join@14, drain:0@20, kill:cold@3, kill:7@5")
	if err != nil {
		t.Fatal(err)
	}
	want := []FleetEvent{
		{Epoch: 12, Kind: Kill, Board: HottestBoard},
		{Epoch: 14, Kind: Join, Board: 0},
		{Epoch: 20, Kind: Drain, Board: 0},
		{Epoch: 3, Kind: Kill, Board: ColdestBoard},
		{Epoch: 5, Kind: Kill, Board: 7},
	}
	if len(p.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(p.Events), len(want))
	}
	for i, ev := range p.Events {
		if ev != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	// A bare kill defaults to the hottest board.
	if p, err = ParsePlan("kill@4"); err != nil || p.Events[0].Board != HottestBoard {
		t.Fatalf("bare kill: %+v, %v", p, err)
	}
	for _, bad := range []string{"", "kill", "kill@x", "kill@-1", "join:2@4", "kill:z@4", "reboot@4"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) accepted a bad spec", bad)
		}
	}
}

// chaosScenario is the fault-tolerance reference workload: six 4 FPS
// cameras spread two per board over three boards, with both of board
// 0's cameras bursting to 16 FPS at t=2 s — so at the burst peak board
// 0 is unambiguously the hottest board in the fleet.
func chaosScenario(seed uint64) (*ufld.Model, []*stream.Source) {
	m := testModel(seed)
	scheds := make([]serve.StreamSchedule, 6)
	for i := range scheds {
		if i == 0 || i == 3 { // LeastLoaded homes streams 0 and 3 on board 0
			scheds[i] = serve.StreamSchedule{Phases: []stream.RatePhase{
				{Frames: 8, FPS: 4}, {Frames: 24, FPS: 16},
			}}
		} else {
			scheds[i] = serve.StreamSchedule{Phases: []stream.RatePhase{
				{Frames: 8, FPS: 4}, {Frames: 16, FPS: 4},
			}}
		}
	}
	return m, serve.SyntheticFleetSchedules(m.Cfg, scheds, seed+100)
}

// chaosConfig runs the scenario with or without the seeded kill.
func chaosConfig(plan *FailurePlan) Config {
	return Config{
		Boards:          3,
		Board:           boardConfig(orin.Mode60W, 1),
		Placement:       LeastLoaded{},
		Governor:        "hysteresis",
		EpochMs:         250,
		Migrate:         true,
		CheckpointEvery: 2,
		Plan:            plan,
	}
}

// TestChaosRecoveryPin is the seeded fault-tolerance acceptance pin:
// killing the hottest board at the burst peak must re-admit every
// orphaned stream from its checkpoint at the same boundary (zero
// recovery epochs, no cold restarts), conserve every frame as served,
// shed or lost-in-queue, and land within a pinned hit-rate margin of
// the no-failure run — deterministically.
func TestChaosRecoveryPin(t *testing.T) {
	m, fleet := chaosScenario(67)
	total := 0
	for _, src := range fleet {
		total += len(src.Frames)
	}
	run := func(plan *FailurePlan) Report {
		f, err := New(m, chaosConfig(plan))
		if err != nil {
			t.Fatal(err)
		}
		return f.Run(fleet)
	}
	plan := func() *FailurePlan {
		return &FailurePlan{Events: []FleetEvent{{Epoch: 8, Kind: Kill, Board: HottestBoard}}}
	}
	chaos := run(plan())

	if len(chaos.Events) != 1 {
		t.Fatalf("%d events fired, want 1: %+v", len(chaos.Events), chaos.Events)
	}
	ev := chaos.Events[0]
	if ev.Kind != Kill || ev.Epoch != 8 {
		t.Fatalf("event %+v, want kill at epoch 8", ev)
	}
	// The burst makes board 0 the hottest at the kill boundary.
	if ev.Board != 0 {
		t.Fatalf("hottest-board kill resolved to board %d, want 0", ev.Board)
	}
	if ev.Streams != 2 || ev.Recovered != 2 || ev.Cold != 0 {
		t.Fatalf("re-admitted %d streams (%d recovered, %d cold), want 2 from checkpoints",
			ev.Streams, ev.Recovered, ev.Cold)
	}
	// Bounded recovery: every orphan re-admits at the kill boundary
	// itself, not epochs later.
	failovers := 0
	for _, mg := range chaos.Migrations {
		if mg.Reason == Failover {
			failovers++
			if mg.Epoch != 8 || mg.From != 0 {
				t.Fatalf("failover move %+v, want from board 0 at epoch 8", mg)
			}
		}
	}
	if failovers != 2 {
		t.Fatalf("%d failover moves, want 2", failovers)
	}
	// Frame conservation: everything the cameras produced was served,
	// shed, or died in the killed board's queue — nothing vanished.
	if got := chaos.Frames + chaos.FramesDropped + chaos.LostFrames; got != total {
		t.Fatalf("served %d + dropped %d + lost %d = %d frames, want %d",
			chaos.Frames, chaos.FramesDropped, chaos.LostFrames, got, total)
	}
	// The killed board's report is final and bounded by the kill epoch.
	dead := chaos.Boards[0]
	if dead.LeaveEpoch != 8 {
		t.Fatalf("killed board leave epoch %d, want 8", dead.LeaveEpoch)
	}
	for _, es := range dead.Report.Epochs {
		if es.Epoch > 8 {
			t.Fatalf("killed board recorded epoch %d after its death", es.Epoch)
		}
	}
	// Both orphans were served by more than one board, and checkpoints
	// were actually flowing.
	for _, gid := range []int{0, 3} {
		if chaos.Streams[gid].Boards < 2 {
			t.Fatalf("orphan stream %d served by %d boards, want ≥ 2", gid, chaos.Streams[gid].Boards)
		}
	}
	if chaos.Checkpoints == 0 || chaos.CheckpointErrors != 0 {
		t.Fatalf("checkpointing: %d writes, %d errors", chaos.Checkpoints, chaos.CheckpointErrors)
	}

	if testing.Short() {
		// One chaos run exercises every concurrent recovery path (the race
		// target's concern); the no-failure comparison and determinism
		// rerun are seeded acceptance pins make test still covers.
		return
	}
	nofail := run(nil)
	if nofail.LostFrames != 0 || len(nofail.Events) != 0 {
		t.Fatalf("no-failure run lost %d frames, fired %d events", nofail.LostFrames, len(nofail.Events))
	}
	// Goodput over produced frames, so losing the queue cannot be hidden
	// by a cleaner served set. The pinned scenario measures 0.9625 both
	// with and without the kill — same-boundary checkpoint recovery is
	// lossless here — and the margin leaves slack for Orin recalibration
	// without letting recovery quality collapse.
	goodput := func(r Report) float64 { return r.HitRate * float64(r.Frames) / float64(total) }
	t.Logf("goodput: chaos %.4f (lost %d), no-failure %.4f", goodput(chaos), chaos.LostFrames, goodput(nofail))
	if goodput(chaos) < goodput(nofail)-0.1 {
		t.Fatalf("recovery goodput %.4f collapsed against no-failure %.4f",
			goodput(chaos), goodput(nofail))
	}
	again := run(plan())
	if again.Frames != chaos.Frames || again.HitRate != chaos.HitRate ||
		again.EnergyMJ != chaos.EnergyMJ || again.LostFrames != chaos.LostFrames ||
		len(again.Migrations) != len(chaos.Migrations) {
		t.Fatalf("chaos run not deterministic: %d/%.6f/%.3f/%d/%d vs %d/%.6f/%.3f/%d/%d",
			again.Frames, again.HitRate, again.EnergyMJ, again.LostFrames, len(again.Migrations),
			chaos.Frames, chaos.HitRate, chaos.EnergyMJ, chaos.LostFrames, len(chaos.Migrations))
	}
}

// TestMembershipSurvivesBoardZero is the membership regression pin for
// the two latent dense-id bugs: per-board stats storage indexed by
// board id and the fleet clock read from boards[0]. Killing board 0
// mid-run and joining a new incarnation afterwards must leave a fleet
// whose ids are no longer dense-from-zero — and the run must still
// step its boundaries, recover the orphans and account every frame.
func TestMembershipSurvivesBoardZero(t *testing.T) {
	m := testModel(71)
	fleet := serve.SyntheticFleet(m.Cfg, 4, 16, 4, 71)
	f, err := New(m, Config{
		Boards:    2,
		Board:     boardConfig(orin.Mode60W, 1),
		Placement: LeastLoaded{},
		EpochMs:   250,
		Plan: &FailurePlan{Events: []FleetEvent{
			{Epoch: 2, Kind: Kill, Board: 0},
			{Epoch: 4, Kind: Join},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Run(fleet)
	if len(rep.Boards) != 3 {
		t.Fatalf("registry has %d incarnations, want 3 (two founders + one join)", len(rep.Boards))
	}
	if rep.Boards[0].LeaveEpoch != 2 {
		t.Fatalf("board 0 leave epoch %d, want 2", rep.Boards[0].LeaveEpoch)
	}
	if rep.Boards[2].JoinEpoch != 4 || rep.Boards[2].LeaveEpoch != -1 {
		t.Fatalf("joined board lifetime [%d, %d], want [4, -1]",
			rep.Boards[2].JoinEpoch, rep.Boards[2].LeaveEpoch)
	}
	// The fleet clock survived board 0's death: the surviving board kept
	// serving past the kill boundary (the 16-frame 4 FPS schedules run
	// to t=4 s, epoch 16, far past the kill at epoch 2).
	if rep.VirtualSeconds*1000 <= 3*250 {
		t.Fatalf("fleet stopped at %.3f s — the clock died with board 0", rep.VirtualSeconds)
	}
	served := 0
	for _, es := range rep.Boards[1].Report.Epochs {
		if es.Epoch > 2 {
			served += es.Served
		}
	}
	if served == 0 {
		t.Fatal("survivor served nothing after the kill boundary")
	}
	total := 0
	for _, src := range fleet {
		total += len(src.Frames)
	}
	if got := rep.Frames + rep.FramesDropped + rep.LostFrames; got != total {
		t.Fatalf("served %d + dropped %d + lost %d = %d frames, want %d",
			rep.Frames, rep.FramesDropped, rep.LostFrames, got, total)
	}
	if len(rep.Events) != 2 {
		t.Fatalf("%d events, want kill + join: %+v", len(rep.Events), rep.Events)
	}
	if ev := rep.Events[0]; ev.Recovered+ev.Cold != ev.Streams {
		t.Fatalf("kill outcome inconsistent: %+v", ev)
	}
}

// rollingUpgradeScenario is the elastic-membership workload: four
// steady cameras on two boards, a fresh board joining at epoch 2 and
// board 0 draining at epoch 3.
func rollingUpgradeScenario(seed uint64) (*ufld.Model, []*stream.Source, Config) {
	m := testModel(seed)
	fleet := serve.SyntheticFleet(m.Cfg, 4, 24, 4, seed)
	cfg := Config{
		Boards:    2,
		Board:     boardConfig(orin.Mode60W, 1),
		Placement: LeastLoaded{},
		EpochMs:   250,
		Plan: &FailurePlan{Events: []FleetEvent{
			{Epoch: 2, Kind: Join},
			{Epoch: 3, Kind: Drain, Board: 0},
		}},
	}
	return m, fleet, cfg
}

// TestRollingUpgrade pins the elastic-membership story: join a fresh
// board, drain an old one — its streams evacuate live (nothing lost),
// the leaver retires and stops charging its rail, and the new
// incarnation takes over serving.
func TestRollingUpgrade(t *testing.T) {
	m, fleet, cfg := rollingUpgradeScenario(73)
	f, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Run(fleet)
	total := 0
	for _, src := range fleet {
		total += len(src.Frames)
	}
	// Lossless: a graceful drain moves state live, so nothing is lost
	// and everything is served.
	if rep.LostFrames != 0 {
		t.Fatalf("rolling upgrade lost %d frames", rep.LostFrames)
	}
	if rep.Frames+rep.FramesDropped != total {
		t.Fatalf("served %d + dropped %d frames, want %d", rep.Frames, rep.FramesDropped, total)
	}
	evac, drained := 0, 0
	for _, mg := range rep.Migrations {
		if mg.Reason == Evacuate {
			evac++
			if mg.From != 0 || mg.Epoch != 3 {
				t.Fatalf("evacuation move %+v, want off board 0 at epoch 3", mg)
			}
			if mg.Drained {
				drained++
			}
		} else if mg.Drained {
			t.Fatalf("drain recorded on a %s move: %+v", mg.Reason, mg)
		}
	}
	if evac != 2 || drained != 1 {
		t.Fatalf("%d evacuation moves (%d drained), want 2 with the last drained", evac, drained)
	}
	// The leaver retired shortly after evacuating: rail accounted only
	// while it still had in-flight work.
	old := rep.Boards[0]
	if old.LeaveEpoch < 3 || old.LeaveEpoch > 6 {
		t.Fatalf("drained board retired at epoch %d, want shortly after the drain at 3", old.LeaveEpoch)
	}
	lastMs := 0.0
	for _, es := range old.Report.Epochs {
		if es.EndMs > lastMs {
			lastMs = es.EndMs
		}
	}
	if lastMs >= rep.VirtualSeconds*1000 {
		t.Fatalf("drained board charged its rail to the end of the run (%.0f ms of %.0f)",
			lastMs, rep.VirtualSeconds*1000)
	}
	// The joined incarnation inherited the evacuated streams and is
	// paying for its own rail.
	nb := rep.Boards[2]
	if nb.JoinEpoch != 2 || nb.MigratedIn < 1 || nb.Report.Frames == 0 {
		t.Fatalf("joined board: join epoch %d, %d migrated in, %d frames — never took over",
			nb.JoinEpoch, nb.MigratedIn, nb.Report.Frames)
	}
	if nb.Report.IdleEnergyMJ <= 0 {
		t.Fatalf("joined board charged no rail draw: %+v", nb.Report)
	}
	if rep.HitRate < 0.99 {
		t.Fatalf("rolling upgrade degraded service: hit rate %.4f", rep.HitRate)
	}
}
