package shard

import (
	"testing"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

func testModel(seed uint64) *ufld.Model {
	cfg := ufld.Tiny(resnet.R18, 2)
	return ufld.MustNewModel(cfg, tensor.NewRNG(seed))
}

func boardConfig(mode orin.PowerMode, workers int) serve.Config {
	return serve.Config{
		Workers:    workers,
		MaxBatch:   8,
		Window:     2 * time.Millisecond,
		AdaptEvery: 4,
		Adapt:      adapt.DefaultConfig(),
		Mode:       mode,
		DeadlineMs: orin.Deadline18FPS,
	}
}

// TestFleetServesEveryFrame: an underloaded two-board fleet serves
// every frame of every stream exactly once, maps board-local reports
// back to fleet stream ids, and strands the capacity it does not use.
func TestFleetServesEveryFrame(t *testing.T) {
	m := testModel(51)
	fleet := serve.SyntheticFleet(m.Cfg, 4, 10, 5, 51)
	f, err := New(m, Config{
		Boards:    2,
		Board:     boardConfig(orin.Mode60W, 1),
		Placement: RoundRobin{},
		EpochMs:   500,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Run(fleet)
	if rep.Frames != 40 {
		t.Fatalf("fleet served %d frames, want 40", rep.Frames)
	}
	if len(rep.Boards) != 2 || len(rep.Streams) != 4 {
		t.Fatalf("report shape: %d boards, %d streams", len(rep.Boards), len(rep.Streams))
	}
	for gi, ss := range rep.Streams {
		if ss.Frames != 10 || ss.Boards != 1 {
			t.Fatalf("stream %d: %d frames on %d boards, want 10 on 1", gi, ss.Frames, ss.Boards)
		}
	}
	if rep.HitRate != 1 {
		t.Fatalf("underloaded fleet hit rate %.3f, want 1", rep.HitRate)
	}
	if len(rep.Migrations) != 0 {
		t.Fatalf("migration disabled but %d migrations recorded", len(rep.Migrations))
	}
	if rep.StrandedMs <= 0 {
		t.Fatalf("underloaded fleet stranded %.1f worker-ms, want > 0", rep.StrandedMs)
	}
	if rep.EnergyMJ <= 0 || rep.EnergyMJ != rep.BusyEnergyMJ+rep.IdleEnergyMJ {
		t.Fatalf("energy accounting inconsistent: %+v", rep)
	}
}

// migrationScenario builds the deterministic saturation workload: a
// genuine forecast miss through trend reversal. Four cameras open at a
// moderate 10 FPS — the admission-epoch rate ForecastLoads seeds
// placement with — so BinPack packs them two per board and leaves
// boards 2–3 dark. They then ramp down to a 2 FPS lull (the live
// forecasts dutifully follow the trend down) before reversing hard to
// a sustained 20 FPS, which no causal forecaster fed the lull could
// predict. Two 20 FPS cameras are nearly 2× one 30 W worker's
// capacity — far more than shedding can absorb — while each stream
// alone fits one board. Budget 30 W caps the ladder, so the packed
// boards' governors pin at 30 W, keep missing, and only migration to
// the dark boards can restore service.
func migrationScenario(seed uint64) (*ufld.Model, []*stream.Source, Config) {
	m := testModel(seed)
	scheds := make([]serve.StreamSchedule, 4)
	for i := range scheds {
		scheds[i] = serve.StreamSchedule{Phases: []stream.RatePhase{
			{Frames: 12, FPS: 10},
			{Frames: 10, FPS: 2},
			{Frames: 60, FPS: 20},
		}}
	}
	fleet := serve.SyntheticFleetSchedules(m.Cfg, scheds, seed+100)
	cfg := Config{
		Boards:    4,
		Board:     boardConfig(orin.Mode30W, 1),
		Placement: BinPack{},
		Governor:  "hysteresis",
		BudgetW:   30,
		EpochMs:   250,
	}
	return m, fleet, cfg
}

// TestMigrationRescuesSaturatedBoard is the migration regression pin:
// on the packed scenario the coordinator must actually migrate, the
// migrated stream must be served by both boards, and the fleet
// deadline-hit rate must beat the no-migration run of the same
// workload — deterministically.
func TestMigrationRescuesSaturatedBoard(t *testing.T) {
	run := func(migrate bool) Report {
		m, fleet, cfg := migrationScenario(53)
		cfg.Migrate = migrate
		f, err := New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f.Run(fleet)
	}
	mig := run(true)
	if len(mig.Migrations) < 1 {
		t.Fatal("saturated board never migrated")
	}
	for _, mg := range mig.Migrations {
		if mg.Reason != Saturate {
			t.Fatalf("consolidation disabled but migration %+v recorded", mg)
		}
	}
	moved := mig.Migrations[0].Stream
	if ss := mig.Streams[moved]; ss.Boards != 2 {
		t.Fatalf("migrated stream %d served by %d boards, want 2", moved, ss.Boards)
	}
	if testing.Short() {
		// One fleet run already exercises every concurrent path (the race
		// target's concern); the no-migrate comparison and determinism
		// rerun below are seeded acceptance pins make test still covers.
		return
	}
	still := run(false)
	if len(still.Migrations) != 0 {
		t.Fatalf("no-migrate run recorded %d migrations", len(still.Migrations))
	}
	if mig.Frames < still.Frames {
		t.Fatalf("migrated run served %d frames, fewer than %d without", mig.Frames, still.Frames)
	}
	// Goodput over arrived frames, so a no-migrate run that escalates to
	// DropFrames cannot win by shedding its way to a clean served set.
	goodput := func(r Report) float64 { return r.HitRate * float64(r.Frames) / 328 }
	if goodput(mig) <= goodput(still) {
		t.Fatalf("migration did not improve service: goodput %.3f vs %.3f without",
			goodput(mig), goodput(still))
	}
	// The pinned scenario measures goodput 0.896 vs 0.829: the int8
	// inference rung lets even the no-migrate run partially rescue its
	// saturated board, so the migration margin is slimmer than it was
	// when shedding was the only relief. 0.05 leaves slack for Orin
	// recalibration without letting migration regress to a no-op.
	if goodput(mig) < goodput(still)+0.05 {
		t.Fatalf("migration gain collapsed: goodput %.3f vs %.3f without",
			goodput(mig), goodput(still))
	}
	// The trend reversal must be what saturates: ForecastLoads' seeds
	// (the 10 FPS opening) pack the fleet two per board, leaving two
	// boards dark until migration opens them.
	dark := 0
	for _, br := range still.Boards {
		if br.Report.Frames == 0 {
			dark++
		}
	}
	if dark != 2 {
		t.Fatalf("placement left %d boards dark, want 2 — admission seeds changed", dark)
	}
	boardsIn := mig.Boards[mig.Migrations[0].To]
	if boardsIn.MigratedIn != len(mig.Migrations) && mig.Boards[0].MigratedOut == 0 {
		t.Fatalf("migration bookkeeping inconsistent: %+v", mig.Migrations)
	}
	// Seeded determinism: the virtual accounting must reproduce exactly.
	again := run(true)
	if again.Frames != mig.Frames || again.HitRate != mig.HitRate ||
		again.EnergyMJ != mig.EnergyMJ || len(again.Migrations) != len(mig.Migrations) {
		t.Fatalf("sharded run not deterministic: %d/%.6f/%.3f/%d vs %d/%.6f/%.3f/%d",
			again.Frames, again.HitRate, again.EnergyMJ, len(again.Migrations),
			mig.Frames, mig.HitRate, mig.EnergyMJ, len(mig.Migrations))
	}
}

// TestFourSmallBeatOneBigStatic is the headline acceptance pin for
// sharding: on the reference bursty fleet, four governed
// single-worker boards — bin-packed so one board starts dark and
// migration opens it under saturation — must beat one static
// four-worker board sized offline for the mean load (30 W) on
// deadline-hit rate, at comparable total energy. The static board's
// mean-sized mode saturates in every burst; the governed boards climb
// their own ladders just for the bursts and park low through lulls.
//
// The pinned scenario measures hit 0.625 vs 0.320 at 1.354× the energy
// (logged below); the thresholds leave slack for Orin recalibration
// without letting either axis of the claim collapse.
func TestFourSmallBeatOneBigStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance pin over two full fleet runs; concurrency is covered by the migration tests")
	}
	m := testModel(59)
	fleet := serve.BurstyFleet(m.Cfg, 8, 2, 6, 24, 2, 30, 59)
	total := 0
	for _, src := range fleet {
		total += len(src.Frames)
	}
	big, err := New(m, Config{
		Boards:  1,
		Board:   boardConfig(orin.Mode30W, 4),
		EpochMs: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	// BinPack 0.15 over ForecastLoads' admission-epoch seeds (every
	// camera opens in its 2 FPS lull, ~0.05 worker-share each) packs
	// three streams per board and leaves the fourth board dark.
	small, err := New(m, Config{
		Boards:    4,
		Board:     boardConfig(orin.Mode60W, 1),
		Placement: BinPack{Target: 0.15},
		Governor:  "hysteresis",
		EpochMs:   250,
		Migrate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bigRep := big.Run(fleet)
	smallRep := small.Run(fleet)
	t.Logf("hit: 4 governed boards %.3f vs 1 static board %.3f at %.3f× the energy",
		smallRep.HitRate, bigRep.HitRate, smallRep.EnergyMJ/bigRep.EnergyMJ)
	if smallRep.Frames != total || bigRep.Frames != total {
		t.Fatalf("deployments shed frames: %d and %d served of %d", smallRep.Frames, bigRep.Frames, total)
	}
	if smallRep.HitRate < bigRep.HitRate+0.15 {
		t.Fatalf("4 governed boards hit %.3f, not clearly above 1 static board's %.3f",
			smallRep.HitRate, bigRep.HitRate)
	}
	// "Comparable" energy: within 1.5× of the static board — the shards
	// pay four rails, but only while their boards are open.
	if smallRep.EnergyMJ >= 1.5*bigRep.EnergyMJ {
		t.Fatalf("4 governed boards spent %.0f mJ vs static board's %.0f mJ — not comparable",
			smallRep.EnergyMJ, bigRep.EnergyMJ)
	}
	// The bin-packed fleet starts with a dark board that only migration
	// can open; the last board serving frames is the sharding story.
	if len(smallRep.Migrations) < 1 {
		t.Fatal("bin-packed fleet never migrated under saturation")
	}
	opened := smallRep.Boards[len(smallRep.Boards)-1]
	if opened.MigratedIn < 1 || opened.Report.Frames == 0 {
		t.Fatalf("dark board never opened: %d migrated in, %d frames", opened.MigratedIn, opened.Report.Frames)
	}
}
