package govern

import (
	"math"
	"strings"
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

// burstyScenario is the deterministic governor workload: two cameras
// that idle at 2 FPS and burst to 30 FPS together (plus BurstyFleet's
// late joiner), against the 18 FPS deadline. Fig. 3-style pricing
// makes 15 W miss that deadline even unloaded, while a burst saturates
// everything below MAXN — exactly the regime where one static mode
// must either miss deadlines or burn watts through every lull.
func burstyScenario(seed uint64) (*ufld.Model, []*stream.Source, serve.Config) {
	cfg := ufld.Tiny(resnet.R18, 2)
	m := ufld.MustNewModel(cfg, tensor.NewRNG(seed))
	fleet := serve.BurstyFleet(cfg, 2, 2, 6, 24, 2, 30, seed+100)
	scfg := serve.Config{
		Workers:    1,
		MaxBatch:   8,
		Window:     2 * time.Millisecond,
		AdaptEvery: 4,
		Adapt:      adapt.DefaultConfig(),
		DeadlineMs: orin.Deadline18FPS,
		Policy:     stream.DropNone,
	}
	return m, fleet, scfg
}

const epochMs = 250

// distinctModes counts the power modes a run's epoch trace visited.
func distinctModes(rep serve.Report) int {
	seen := map[int]bool{}
	for _, es := range rep.Epochs {
		seen[es.Controls.Mode.Watts] = true
	}
	return len(seen)
}

// TestGovernedBurstyFleetRegression is the seeded acceptance pin for
// the closed loop: on the deterministic bursty fleet the Hysteresis
// governor must hit at least as many deadlines as the static 15 W
// deployment while consuming measurably less total energy than the
// static 60 W one — riding the ladder beats both corner cases at once.
func TestGovernedBurstyFleetRegression(t *testing.T) {
	m, fleet, scfg := burstyScenario(71)
	run := func(mode orin.PowerMode, ctl serve.Controller) serve.Report {
		c := scfg
		c.Mode = mode
		return serve.New(m, c).RunGoverned(fleet, epochMs, ctl)
	}
	s15 := run(orin.Mode15W, Static{})
	s60 := run(orin.Mode60W, Static{})
	hys := run(orin.Mode60W, &Hysteresis{})

	hit := func(r serve.Report) float64 { return 1 - r.MissRate }
	t.Logf("hit: static 15 W %.3f, static 60 W %.3f, hysteresis %.3f at %.3f× static 60 W's energy",
		hit(s15), hit(s60), hit(hys), hys.EnergyMJ/s60.EnergyMJ)
	if hit(s60) <= hit(s15) {
		t.Fatalf("scenario broken: static 60 W hit %.3f not above static 15 W hit %.3f", hit(s60), hit(s15))
	}
	if hit(hys) < hit(s15) {
		t.Fatalf("hysteresis hit rate %.3f below static 15 W's %.3f", hit(hys), hit(s15))
	}
	// The governor must deliver real service, not just edge the corner
	// case: the pinned scenario measures 0.647 at 0.827× static 60 W's
	// energy (logged above); 0.4 leaves slack for Orin recalibration
	// without letting the control loop regress to burst-tail-only
	// serving.
	if hit(hys) < 0.4 {
		t.Fatalf("hysteresis hit rate %.3f collapsed on the reference scenario", hit(hys))
	}
	if hys.EnergyMJ >= 0.9*s60.EnergyMJ {
		t.Fatalf("hysteresis energy %.0f mJ not measurably below static 60 W's %.0f mJ",
			hys.EnergyMJ, s60.EnergyMJ)
	}
	if n := distinctModes(hys); n < 2 {
		t.Fatalf("hysteresis never moved on the ladder (%d mode)", n)
	}
	// The virtual accounting is deterministic: a second run must agree
	// exactly, which is what makes this a regression pin.
	again := run(orin.Mode60W, &Hysteresis{})
	if again.EnergyMJ != hys.EnergyMJ || again.MissRate != hys.MissRate || again.Frames != hys.Frames {
		t.Fatalf("governed run not deterministic: %.6f/%.6f/%d vs %.6f/%.6f/%d",
			again.EnergyMJ, again.MissRate, again.Frames, hys.EnergyMJ, hys.MissRate, hys.Frames)
	}
}

// TestOracleGovernsAtLeastAsWell: the exhaustive per-epoch sweep must
// also beat static 60 W on energy without falling below static 15 W
// service, and must actually exercise the ladder.
func TestOracleGovernsAtLeastAsWell(t *testing.T) {
	m, fleet, scfg := burstyScenario(73)
	run := func(mode orin.PowerMode, ctl serve.Controller) serve.Report {
		c := scfg
		c.Mode = mode
		return serve.New(m, c).RunGoverned(fleet, epochMs, ctl)
	}
	s15 := run(orin.Mode15W, Static{})
	s60 := run(orin.Mode60W, Static{})
	orc := run(orin.Mode60W, &Oracle{})
	t.Logf("hit: static 15 W %.3f, static 60 W %.3f, oracle %.3f at %.3f× static 60 W's energy",
		1-s15.MissRate, 1-s60.MissRate, 1-orc.MissRate, orc.EnergyMJ/s60.EnergyMJ)
	if hit := 1 - orc.MissRate; hit < 1-s15.MissRate {
		t.Fatalf("oracle hit rate %.3f below static 15 W's %.3f", hit, 1-s15.MissRate)
	}
	// Clairvoyant pre-climbing should hold near-MAXN service: the
	// pinned scenario measures 1.000 against static 60 W's 0.960, at
	// 0.725× its energy (logged above); 0.8 leaves recalibration slack.
	if hit := 1 - orc.MissRate; hit < 0.8 {
		t.Fatalf("oracle hit rate %.3f collapsed on the reference scenario", hit)
	}
	if orc.EnergyMJ >= 0.9*s60.EnergyMJ {
		t.Fatalf("oracle energy %.0f mJ not measurably below static 60 W's %.0f mJ", orc.EnergyMJ, s60.EnergyMJ)
	}
	if n := distinctModes(orc); n < 2 {
		t.Fatalf("oracle never moved on the ladder (%d mode)", n)
	}
}

// TestHysteresisRespectsPowerBudget is the budget property test: under
// hundreds of adversarial telemetry sequences the governor must never
// actuate a mode above its power budget, and must keep the cadence and
// policy within their ladders.
func TestHysteresisRespectsPowerBudget(t *testing.T) {
	for _, budget := range []int{15, 30, 50, 60, 0} {
		h := &Hysteresis{BudgetW: budget}
		cur := h.Start(serve.Config{
			Mode: orin.Mode60W, Policy: stream.DropNone, AdaptEvery: 4,
		})
		// Deterministic LCG drives hit rate, backlog and utilization
		// through healthy, saturated and recovering regimes.
		state := uint64(0x9E3779B97F4A7C15 + uint64(budget))
		rand := func() float64 {
			state = state*6364136223846793005 + 1442695040888963407
			return float64(state>>11) / float64(1<<53)
		}
		for i := 0; i < 500; i++ {
			es := serve.EpochStats{
				Epoch:           i,
				Controls:        cur,
				Served:          int(rand() * 50),
				DeadlineHitRate: rand(),
				QueueDepth:      int(rand() * 6),
				Utilization:     rand() * 1.5,
			}
			cur = h.Decide(es, cur, nil) // hysteresis is probe-free by contract
			if budget > 0 && cur.Mode.Watts > budget {
				t.Fatalf("budget %d W: epoch %d selected %s", budget, i, cur.Mode.Name)
			}
			if cur.Mode.Name == "" {
				t.Fatalf("budget %d W: epoch %d produced an empty mode", budget, i)
			}
			if cur.AdaptEvery < 0 || cur.AdaptEvery > 16 {
				t.Fatalf("budget %d W: epoch %d cadence %d off the ladder", budget, i, cur.AdaptEvery)
			}
			if r := policyRank(cur.Policy); r < 0 || r >= len(policyLadder) {
				t.Fatalf("budget %d W: epoch %d policy %v off the ladder", budget, i, cur.Policy)
			}
		}
	}
}

// TestHysteresisClimbsAndRecovers scripts the control loop: a floor
// miss climbs one rung, saturation jumps to the top rung, recovery
// descends one rung per Patience healthy epochs, and a rung that
// failed recently stays blocked until its backoff expires.
func TestHysteresisClimbsAndRecovers(t *testing.T) {
	h := &Hysteresis{Patience: 2, Backoff: 4}
	cur := h.Start(serve.Config{Mode: orin.Mode60W, Policy: stream.DropNone, AdaptEvery: 4})
	if cur.Mode.Watts != orin.Modes[0].Watts {
		t.Fatalf("hysteresis must start on the lowest rung, got %s", cur.Mode.Name)
	}
	// A latency-floor miss (no backlog) is a one-rung problem.
	miss := serve.EpochStats{Epoch: 0, Served: 10, DeadlineHitRate: 0.5, Utilization: 0.2}
	cur = h.Decide(miss, cur, nil)
	if cur.Mode.Watts != orin.Modes[1].Watts {
		t.Fatalf("floor miss must climb one rung, got %s", cur.Mode.Name)
	}
	// Saturation (backlog at the boundary) jumps straight to the top.
	sat := serve.EpochStats{Epoch: 1, Served: 30, DeadlineHitRate: 0.2, QueueDepth: 9, Utilization: 1.4}
	cur = h.Decide(sat, cur, nil)
	top := orin.Modes[len(orin.Modes)-1]
	if cur.Mode.Watts != top.Watts {
		t.Fatalf("saturation must jump to the top rung, got %s", cur.Mode.Name)
	}
	// Recovery: one descent per Patience healthy epochs. The rung below
	// the top never failed, so no backoff blocks it.
	good := serve.EpochStats{Served: 10, DeadlineHitRate: 1, QueueDepth: 0, Utilization: 0.05}
	good.Epoch = 2
	cur = h.Decide(good, cur, nil)
	if cur.Mode.Watts != top.Watts {
		t.Fatalf("one good epoch must not yet descend (patience), got %s", cur.Mode.Name)
	}
	good.Epoch = 3
	cur = h.Decide(good, cur, nil)
	if cur.Mode.Watts != orin.Modes[2].Watts {
		t.Fatalf("patience satisfied on an idle fleet must descend one rung, got %s", cur.Mode.Name)
	}
	// Rung 1 failed at epoch 1 (backoff 4 → retry at 5): the descent
	// into it is blocked until then.
	good.Epoch = 4
	cur = h.Decide(good, cur, nil)
	good.Epoch = 5
	cur = h.Decide(good, cur, nil)
	if cur.Mode.Watts != orin.Modes[1].Watts {
		t.Fatalf("backoff expired: idle fleet must descend into the once-failed rung, got %s", cur.Mode.Name)
	}
}

// TestHysteresisSaturationEscalation: pinned at the top rung, sustained
// saturation must stretch the adaptation cadence, then drop to the
// int8 inference rung, and only then escalate the overload policy —
// accuracy is spent before frames, and bounded quantization error
// before whole adaptation steps.
func TestHysteresisSaturationEscalation(t *testing.T) {
	h := &Hysteresis{BudgetW: 30}
	cur := h.Start(serve.Config{Mode: orin.Mode60W, Policy: stream.DropNone, AdaptEvery: 2})
	bad := serve.EpochStats{Served: 40, DeadlineHitRate: 0.1, QueueDepth: 20, Utilization: 1.8}
	cur = h.Decide(bad, cur, nil) // 15 → 30 (top of the 30 W budget)
	if cur.Mode.Watts != 30 {
		t.Fatalf("expected the 30 W rung, got %s", cur.Mode.Name)
	}
	cur = h.Decide(bad, cur, nil)
	if cur.AdaptEvery != 4 {
		t.Fatalf("saturated at top rung: cadence must stretch to 4, got %d", cur.AdaptEvery)
	}
	cur = h.Decide(bad, cur, nil)
	if cur.AdaptEvery != 8 {
		t.Fatalf("cadence must stretch to its 4× cap, got %d", cur.AdaptEvery)
	}
	cur = h.Decide(bad, cur, nil)
	if !cur.Quantized {
		t.Fatal("cadence capped: the int8 rung must engage before any shedding")
	}
	if cur.Policy != stream.DropNone {
		t.Fatalf("quantization must precede policy escalation, got %v", cur.Policy)
	}
	cur = h.Decide(bad, cur, nil)
	if cur.Policy != stream.SkipAdapt {
		t.Fatalf("int8 engaged: policy must escalate to skip-adapt, got %v", cur.Policy)
	}
	cur = h.Decide(bad, cur, nil)
	if cur.Policy != stream.DropFrames {
		t.Fatalf("policy must escalate to drop-frames, got %v", cur.Policy)
	}
	if cur.Mode.Watts > 30 {
		t.Fatalf("escalation must never break the budget, got %s", cur.Mode.Name)
	}
	// Recovery retraces in reverse: policy first, precision after.
	good := serve.EpochStats{Epoch: 10, Served: 10, DeadlineHitRate: 1, QueueDepth: 0, Utilization: 0.05}
	for i := 0; i < 2*h.patience(); i++ {
		good.Epoch++
		cur = h.Decide(good, cur, nil)
	}
	if cur.Policy != stream.DropNone {
		t.Fatalf("recovery must restore the policy ladder first, got %v", cur.Policy)
	}
	if !cur.Quantized {
		t.Fatal("precision must restore after policy, not before")
	}
	good.Epoch++
	for i := 0; i < h.patience(); i++ {
		good.Epoch++
		cur = h.Decide(good, cur, nil)
	}
	if cur.Quantized {
		t.Fatal("healthy epochs past patience must restore float32 precision")
	}
}

// TestByName covers the CLI constructor including the budget floor.
func TestByName(t *testing.T) {
	for _, name := range []string{"static", "hysteresis", "predictive", "oracle"} {
		ctl, err := ByName(name, 0)
		if err != nil || ctl.Name() != name {
			t.Fatalf("ByName(%q): %v, %v", name, ctl, err)
		}
	}
	if _, err := ByName("pid", 0); err == nil || !strings.Contains(err.Error(), "pid") {
		t.Fatalf("unknown governor accepted: %v", err)
	}
	if _, err := ByName("hysteresis", 10); err == nil {
		t.Fatal("a budget below the lowest mode must be rejected")
	}
}

// TestLadder pins the budget filtering.
func TestLadder(t *testing.T) {
	all, err := Ladder(0)
	if err != nil || len(all) != len(orin.Modes) {
		t.Fatalf("unconstrained ladder: %v, %v", all, err)
	}
	l30, err := Ladder(30)
	if err != nil || len(l30) != 2 || l30[len(l30)-1].Watts != 30 {
		t.Fatalf("30 W ladder: %v, %v", l30, err)
	}
	if _, err := Ladder(10); err == nil {
		t.Fatal("10 W ladder must fail")
	}
	if math.Abs(l30[0].IdleWatts-orin.Mode15W.IdleWatts) > 1e-12 {
		t.Fatal("ladder must preserve mode parameters")
	}
}
