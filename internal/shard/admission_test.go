package shard

import (
	"testing"
	"time"

	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/ufld"
)

// lateJoinFleet builds upfront streams plus late arrivals for the
// admission tests: nUp streams at upFPS from t=0, then nLate streams
// at lateFPS whose first frame lands at start (+100 ms per extra late
// stream, so they stay distinguishable but share an eligibility
// boundary).
func lateJoinFleet(m *ufld.Model, nUp, upFrames int, upFPS float64,
	nLate, lateFrames int, lateFPS float64, start time.Duration, seed uint64) []*stream.Source {
	scheds := make([]serve.StreamSchedule, 0, nUp+nLate)
	for i := 0; i < nUp; i++ {
		scheds = append(scheds, serve.StreamSchedule{Phases: []stream.RatePhase{{Frames: upFrames, FPS: upFPS}}})
	}
	for i := 0; i < nLate; i++ {
		scheds = append(scheds, serve.StreamSchedule{
			Start:  start + time.Duration(i)*100*time.Millisecond,
			Phases: []stream.RatePhase{{Frames: lateFrames, FPS: lateFPS}},
		})
	}
	return serve.SyntheticFleetSchedules(m.Cfg, scheds, seed)
}

// admissionConfig is the shared gate-test config: boards at 60 W with
// one worker, no governor ladder games, admission on.
func admissionConfig(boards int, adm *Admission) Config {
	return Config{
		Boards:    boards,
		Board:     boardConfig(orin.Mode60W, 1),
		Placement: LeastLoaded{},
		EpochMs:   250,
		Admission: adm,
	}
}

// TestAdmissionLossless: a fleet with forecast headroom admits a late
// camera at the boundary before its first frame — one epoch of
// lookahead — so nothing is dropped and its whole schedule is served.
func TestAdmissionLossless(t *testing.T) {
	m := testModel(111)
	fleet := lateJoinFleet(m, 2, 8, 2, 1, 8, 4, 2*time.Second, 111)
	f, err := New(m, admissionConfig(2, &Admission{}))
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Run(fleet)
	if len(rep.Admissions) != 1 {
		t.Fatalf("admissions %+v, want exactly one", rep.Admissions)
	}
	ar := rep.Admissions[0]
	if ar.Rejected || ar.Stream != 2 || ar.Board < 0 {
		t.Fatalf("late stream not admitted: %+v", ar)
	}
	if ar.Waited != 0 || ar.DroppedFrames != 0 {
		t.Fatalf("headroom admission must be lossless and immediate: %+v", ar)
	}
	if rep.AdmitDropped != 0 {
		t.Fatalf("admit-dropped %d, want 0", rep.AdmitDropped)
	}
	if rep.Streams[2].Frames != 8 {
		t.Fatalf("admitted stream served %d frames, want all 8", rep.Streams[2].Frames)
	}
}

// TestAdmissionQueuesUntilHeadroom: a late camera arriving into a full
// board waits at the gate — losing the frames that pass meanwhile —
// and is admitted once the upfront load drains and the forecast frees
// headroom.
func TestAdmissionQueuesUntilHeadroom(t *testing.T) {
	m := testModel(113)
	// Two 20 FPS cameras on one 60 W worker: forecast utilization
	// ~10 × 13.5 ms / 250 ms ≈ 0.54, over the 0.5 ceiling, until they
	// end at t=2 s. The late camera (16 frames at 4 FPS from t=1 s,
	// ending t=4.75 s) must wait out the saturation.
	fleet := lateJoinFleet(m, 2, 40, 20, 1, 16, 4, time.Second, 113)
	f, err := New(m, admissionConfig(1, &Admission{}))
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Run(fleet)
	if len(rep.Admissions) != 1 {
		t.Fatalf("admissions %+v, want exactly one", rep.Admissions)
	}
	ar := rep.Admissions[0]
	if ar.Rejected {
		t.Fatalf("queued stream was shed: %+v", ar)
	}
	if ar.Waited < 1 || ar.DroppedFrames < 1 {
		t.Fatalf("full fleet must make the stream wait and drop passing frames: %+v", ar)
	}
	if got := rep.Streams[2].Frames; got != 16-ar.DroppedFrames {
		t.Fatalf("admitted stream served %d frames, want %d (16 minus %d dropped at the gate)",
			got, 16-ar.DroppedFrames, ar.DroppedFrames)
	}
	total := 0
	for _, src := range fleet {
		total += len(src.Frames)
	}
	if got := rep.Frames + rep.FramesDropped + rep.AdmitDropped; got != total {
		t.Fatalf("conservation: served %d + dropped %d + admit-dropped %d = %d, want %d",
			rep.Frames, rep.FramesDropped, rep.AdmitDropped, got, total)
	}
}

// queueCapScenario is the queue-cap admission workload: two late
// cameras arrive into one board the upfront pair saturates, and the
// gate queues at most one of them.
func queueCapScenario(seed uint64) (*ufld.Model, []*stream.Source, Config) {
	m := testModel(seed)
	fleet := lateJoinFleet(m, 2, 40, 20, 2, 16, 4, time.Second, seed+2)
	return m, fleet, admissionConfig(1, &Admission{Queue: 1})
}

// TestAdmissionShedAndQueueCap: with the shed policy a no-headroom
// arrival is rejected outright; with a queue cap the overflow waiter
// is shed while the one under the cap is eventually admitted.
func TestAdmissionShedAndQueueCap(t *testing.T) {
	m := testModel(115)
	t.Run("shed", func(t *testing.T) {
		fleet := lateJoinFleet(m, 2, 40, 20, 1, 16, 4, time.Second, 115)
		f, err := New(m, admissionConfig(1, &Admission{Shed: true}))
		if err != nil {
			t.Fatal(err)
		}
		rep := f.Run(fleet)
		if len(rep.Admissions) != 1 || !rep.Admissions[0].Rejected || rep.Admissions[0].Board != -1 {
			t.Fatalf("shed policy must reject at first sight: %+v", rep.Admissions)
		}
		if rep.AdmitDropped != 16 {
			t.Fatalf("admit-dropped %d, want the whole 16-frame schedule", rep.AdmitDropped)
		}
		if rep.Streams[2].Frames != 0 {
			t.Fatalf("shed stream served %d frames, want 0", rep.Streams[2].Frames)
		}
	})
	t.Run("queue-cap", func(t *testing.T) {
		m, fleet, cfg := queueCapScenario(115)
		f, err := New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := f.Run(fleet)
		admitted, rejected := 0, 0
		for _, ar := range rep.Admissions {
			if ar.Rejected {
				rejected++
			} else {
				admitted++
			}
		}
		if admitted != 1 || rejected != 1 {
			t.Fatalf("queue cap 1 with two waiters: %d admitted, %d rejected (%+v), want 1 and 1",
				admitted, rejected, rep.Admissions)
		}
	})
}

// rebalanceScenario is the cross-group spread: RoundRobin homes
// streams 0,1 (16 FPS, saturating a 15 W worker ~4 × 72.5 ms per
// 250 ms epoch) on boards 0,1 = group 0 and streams 2,3 (2 FPS
// trickles) on boards 2,3 = group 1.
func rebalanceScenario(seed uint64) (*ufld.Model, []*stream.Source, Config) {
	m := testModel(seed)
	scheds := make([]serve.StreamSchedule, 4)
	for i := range scheds {
		if i < 2 {
			scheds[i] = serve.StreamSchedule{Phases: []stream.RatePhase{{Frames: 40, FPS: 16}}}
		} else {
			scheds[i] = serve.StreamSchedule{Phases: []stream.RatePhase{{Frames: 8, FPS: 2}}}
		}
	}
	fleet := serve.SyntheticFleetSchedules(m.Cfg, scheds, seed)
	cfg := Config{
		Boards:    4,
		Board:     boardConfig(orin.Mode15W, 1),
		Placement: RoundRobin{},
		Governor:  "hysteresis",
		BudgetW:   15,
		EpochMs:   250,
		Migrate:   true,
		GroupSize: 2,
	}
	return m, fleet, cfg
}

// TestRebalanceAcrossGroups pins the top-level fleet placer: two
// saturated boards alone in their group (no in-group destination has
// headroom) while the other group idles is exactly the spread only the
// cross-group rebalancer can fix.
func TestRebalanceAcrossGroups(t *testing.T) {
	m, fleet, cfg := rebalanceScenario(119)
	f, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Run(fleet)
	found := false
	for _, mg := range rep.Migrations {
		if mg.Reason != Rebalance {
			continue
		}
		found = true
		if mg.From > 1 || mg.To < 2 {
			t.Fatalf("rebalance move %+v, want hot group {0,1} → cold group {2,3}", mg)
		}
	}
	if !found {
		t.Fatalf("cross-group spread never rebalanced: %+v", rep.Migrations)
	}
}
