package shard

import (
	"math"
	"testing"

	"ldbnadapt/internal/forecast"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
)

// TestForecastLoads pins the admission-time placement seeds: each
// stream's load is its forecaster's prediction after observing the
// opening-epoch arrival count, priced at the shared per-frame cost —
// not the whole-run mean the old estimator used (a replay oracle no
// admission controller has).
func TestForecastLoads(t *testing.T) {
	m := testModel(71)
	scheds := []serve.StreamSchedule{
		// Opens at 10 FPS (3 arrivals inside the first 250 ms) before
		// collapsing to 2 FPS: an admission controller sees 3, the
		// whole-run mean would see ~2.6 FPS.
		{Phases: []stream.RatePhase{{Frames: 12, FPS: 10}, {Frames: 20, FPS: 2}}},
		// Opens at 2 FPS (1 arrival in the first 250 ms) and later
		// bursts: admission sees the lull.
		{Phases: []stream.RatePhase{{Frames: 4, FPS: 2}, {Frames: 40, FPS: 20}}},
	}
	fleet := serve.SyntheticFleetSchedules(m.Cfg, scheds, 71)
	mk := func() forecast.Forecaster { return forecast.NewNaive() }
	frameMs, epochMs := 40.0, 250.0
	loads := ForecastLoads(fleet, frameMs, epochMs, mk)
	want0 := 3 * frameMs / epochMs
	want1 := 1 * frameMs / epochMs
	if math.Abs(loads[0]-want0) > 1e-12 || math.Abs(loads[1]-want1) > 1e-12 {
		t.Fatalf("ForecastLoads = %v, want [%v %v]", loads, want0, want1)
	}
	// Late joiners are measured from their own first arrival.
	late := serve.SyntheticFleetSchedules(m.Cfg, []serve.StreamSchedule{
		{Start: 5 * 1e9, Phases: []stream.RatePhase{{Frames: 8, FPS: 10}}},
	}, 72)
	if l := ForecastLoads(late, frameMs, epochMs, mk); math.Abs(l[0]-want0) > 1e-12 {
		t.Fatalf("late joiner load %v, want %v", l[0], want0)
	}
	// An empty source carries no load.
	if l := ForecastLoads([]*stream.Source{{FPS: 30}}, frameMs, epochMs, mk); l[0] != 0 {
		t.Fatalf("empty source load %v, want 0", l[0])
	}
}

// consolidationScenario is the lull-consolidation reference workload,
// a compressed diurnal cycle with sign-offs: twelve cameras spread
// three per board (LeastLoaded) idle at 2 FPS and rush together at
// 8 FPS twice; after the second rush half the cameras leave (a short
// schedule is a stream that ends) and the survivors settle into a
// long 2 FPS evening. The admission lull lets consolidation pack the
// fleet, and the evening is what consolidation exists for: the
// peak-load memory decays, the sign-offs halve the fleet load, and
// the coordinator drains a board mid-run — its rail sleeps while the
// migrate-only fleet keeps every board awake to serve a trickle.
func consolidationScenario(t *testing.T, consolidate bool) Report {
	t.Helper()
	m := testModel(61)
	scheds := make([]serve.StreamSchedule, 12)
	for i := range scheds {
		phases := []stream.RatePhase{
			{Frames: 8, FPS: 2},  // morning lull: 4 s
			{Frames: 32, FPS: 8}, // rush: 4 s
			{Frames: 8, FPS: 2},  // midday lull: 4 s
			{Frames: 32, FPS: 8}, // second rush: 4 s
		}
		if i%2 == 0 { // every other camera stays for the evening: 12 s
			phases = append(phases, stream.RatePhase{Frames: 24, FPS: 2})
		}
		scheds[i] = serve.StreamSchedule{Phases: phases}
	}
	fleet := serve.SyntheticFleetSchedules(m.Cfg, scheds, 61)
	f, err := New(m, Config{
		Boards:          4,
		Board:           boardConfig(orin.Mode60W, 1),
		Placement:       LeastLoaded{},
		Governor:        "predictive",
		EpochMs:         250,
		Migrate:         true,
		Consolidate:     consolidate,
		ConsolidateUtil: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f.Run(fleet)
}

// TestConsolidationCutsFleetEnergy is the seeded acceptance pin for
// lull consolidation: on the reference workload the consolidation run
// must spend measurably less total energy than the migrate-only run
// of the same fleet at an equal-or-better deadline-hit rate, with at
// least one board drained mid-run in the migration trace. The pinned
// scenario measures hit 0.9891 for both at 0.947× the energy.
func TestConsolidationCutsFleetEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance pin over two full fleet runs; concurrency is covered by the migration tests")
	}
	mig := consolidationScenario(t, false)
	con := consolidationScenario(t, true)
	t.Logf("%d frames, hit %.4f vs migrate-only %.4f at %.3f× the energy (static draw %.3f×)",
		con.Frames, con.HitRate, mig.HitRate, con.EnergyMJ/mig.EnergyMJ, con.IdleEnergyMJ/mig.IdleEnergyMJ)

	if con.HitRate < mig.HitRate {
		t.Fatalf("consolidation hit rate %.4f below migrate-only's %.4f", con.HitRate, mig.HitRate)
	}
	if con.EnergyMJ >= 0.95*mig.EnergyMJ {
		t.Fatalf("consolidation energy %.0f mJ not measurably below migrate-only's %.0f mJ",
			con.EnergyMJ, mig.EnergyMJ)
	}
	// The saving must come from sleeping rails, not shed work.
	if con.IdleEnergyMJ >= mig.IdleEnergyMJ {
		t.Fatalf("consolidation static draw %.0f mJ not below migrate-only's %.0f mJ",
			con.IdleEnergyMJ, mig.IdleEnergyMJ)
	}
	lastEpoch := 0
	for _, br := range con.Boards {
		for _, es := range br.Report.Epochs {
			if es.Epoch > lastEpoch {
				lastEpoch = es.Epoch
			}
		}
	}
	midDrains, conMoves := 0, 0
	for _, mg := range con.Migrations {
		switch mg.Reason {
		case Consolidate:
			conMoves++
		case Saturate: // re-spreading under saturation is pinned by the migration tests
		default:
			t.Fatalf("migration without a reason: %+v", mg)
		}
		if mg.Drained {
			if mg.Reason != Consolidate {
				t.Fatalf("drain recorded on a %s move: %+v", mg.Reason, mg)
			}
			// Drains at the very first boundary are admission packing;
			// the acceptance story needs a board put to sleep mid-run.
			if mg.Epoch > 0 && mg.Epoch < lastEpoch {
				midDrains++
			}
		}
	}
	if midDrains == 0 {
		t.Fatal("no board was drained mid-run")
	}
	if conMoves == 0 {
		t.Fatal("no consolidation moves recorded")
	}
	// The migrate-only run must not consolidate.
	for _, mg := range mig.Migrations {
		if mg.Reason == Consolidate || mg.Drained {
			t.Fatalf("migrate-only run recorded a consolidation move: %+v", mg)
		}
	}
	// Every frame still served exactly once.
	if con.Frames != mig.Frames {
		t.Fatalf("consolidation changed the served frame count: %d vs %d", con.Frames, mig.Frames)
	}
	// Deterministic virtual accounting: a second run reproduces the pin.
	again := consolidationScenario(t, true)
	if again.EnergyMJ != con.EnergyMJ || again.HitRate != con.HitRate ||
		len(again.Migrations) != len(con.Migrations) {
		t.Fatalf("consolidation run not deterministic: %.3f/%.6f/%d vs %.3f/%.6f/%d",
			again.EnergyMJ, again.HitRate, len(again.Migrations),
			con.EnergyMJ, con.HitRate, len(con.Migrations))
	}
}
