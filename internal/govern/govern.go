// Package govern closes the loop the paper's deployment analysis
// leaves open: instead of picking one Orin power mode offline
// (orin.Advisor, examples/powermode) and holding it for the whole run,
// a governor rides the nvpmodel ladder online. The serving engine
// runs in control epochs (serve.RunGoverned); at each boundary the
// governor observes the epoch's windowed telemetry — deadline-hit
// rate, fleet backlog, utilization, shed counts, energy — and
// actuates the next epoch's power mode, overload policy and
// adaptation cadence (serve.Controls).
//
// Four policies ship behind the serve.Controller interface:
//
//   - Static pins the engine's configured controls — the baseline, and
//     exactly Run's one-shot behavior.
//   - Hysteresis is the deployable rule-based ladder climber: it
//     climbs immediately when an epoch misses the service target
//     (TargetHitRate), descends only after two consecutive
//     healthy epochs whose load would fit the lower rung, and under
//     saturation at the top rung stretches the adaptation cadence and
//     escalates the overload policy before giving up frames. It never
//     selects a mode above its power budget.
//   - Predictive is Hysteresis plus feed-forward: the per-stream
//     arrival forecasts (internal/forecast) riding in EpochStats let
//     it pre-climb straight to the lowest rung that fits the
//     predicted load, paying only the onset epoch at a burst instead
//     of one missed epoch per rung. With a flat forecast it decides
//     exactly like Hysteresis.
//   - Oracle is the upper bound: at every boundary it probes each
//     ladder rung against the engine's exact queue/worker/window
//     state (serve.RunGoverned's probe) and takes the cheapest rung
//     that still meets the service target.
//
// Every governor holds the same service target, TargetHitRate, and
// its thresholds are package constants: the recipe is fixed, and a
// deployment picks only the policy, the power budget and the
// Hysteresis failure backoff (Backoff).
//
// The energy a governor saves is the static rail draw: busy energy
// alone favors MAXN (race-to-idle — higher modes finish the same work
// in disproportionately less time), but a board parked at MAXN
// through a load lull burns orin.PowerMode.IdleWatts for nothing.
//
// Controllers are board-local and goroutine-confined: a Controller
// instance observes and actuates exactly one engine, keeps no shared
// state, and needs no locking. The fleet runtime (internal/shard)
// relies on that to run every board's Decide concurrently, one
// goroutine per board, between epoch barriers — parallel
// decides cannot change any decision because no controller can see
// another board.
package govern

import (
	"fmt"

	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
)

// TargetHitRate is the per-epoch service target every governor holds,
// and the one the fleet coordinator (internal/shard) detects
// saturation against: at least 95% of an epoch's served frames inside
// the deadline.
const TargetHitRate = 0.95

// Ladder returns the nvpmodel modes usable under a power budget, in
// ascending power order (budgetW 0 = unconstrained).
func Ladder(budgetW int) ([]orin.PowerMode, error) {
	if budgetW <= 0 {
		return orin.Modes, nil
	}
	var out []orin.PowerMode
	for _, m := range orin.Modes {
		if m.Watts <= budgetW {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("govern: no power mode fits a %d W budget (the lowest mode needs %d W)",
			budgetW, orin.Modes[0].Watts)
	}
	return out, nil
}

// ByName builds the governor a CLI names: "static", "hysteresis",
// "predictive" or "oracle", with an optional power budget in watts
// (0 = unconstrained).
func ByName(name string, budgetW int) (serve.Controller, error) {
	if _, err := Ladder(budgetW); err != nil {
		return nil, err
	}
	switch name {
	case "static":
		return Static{BudgetW: budgetW}, nil
	case "hysteresis":
		return &Hysteresis{BudgetW: budgetW}, nil
	case "predictive":
		return &Predictive{Hysteresis: Hysteresis{BudgetW: budgetW}}, nil
	case "oracle":
		return &Oracle{BudgetW: budgetW}, nil
	}
	return nil, fmt.Errorf("govern: unknown governor %q (have static/hysteresis/predictive/oracle)", name)
}

// Static pins the engine's configured controls for the whole run — the
// offline deployment the paper analyzes, and the baseline the
// closed-loop governors are measured against.
type Static struct {
	// BudgetW caps the pinned mode like the closed-loop governors' cap
	// (0 = unconstrained): a mode over budget is clamped to the highest
	// affordable rung, so `-govern static -power-budget 30` never runs
	// the fleet at 60 W.
	BudgetW int
}

// Name implements serve.Controller.
func (s Static) Name() string { return "static" }

// Start implements serve.Controller.
func (s Static) Start(cfg serve.Config) serve.Controls {
	c := serve.Controls{Mode: cfg.Mode, Policy: cfg.Policy, AdaptEvery: cfg.AdaptEvery, Quantized: cfg.Quantized}
	if s.BudgetW > 0 && c.Mode.Watts > s.BudgetW {
		ladder, err := Ladder(s.BudgetW)
		if err != nil {
			panic(err.Error()) // ByName validates; direct construction must too
		}
		c.Mode = ladder[len(ladder)-1]
	}
	return c
}

// Decide implements serve.Controller: static controls never move.
func (s Static) Decide(_ serve.EpochStats, cur serve.Controls, _ func(serve.Controls) serve.EpochStats) serve.Controls {
	return cur
}
