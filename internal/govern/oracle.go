package govern

import (
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
)

// Oracle is the clairvoyant upper bound on governing: at every epoch
// boundary it sweeps the whole affordable mode ladder through
// serve.RunGoverned's probe — an exact simulation of the next epoch
// from the engine's current queue, worker and adaptation-window state,
// including the arrivals still to come — and commits to the cheapest
// rung that meets the service target without letting the backlog grow.
// If no rung qualifies, it takes the one serving best (highest hit
// rate, then lower energy). Rule-based governors like Hysteresis are
// measured by how close they get to this without seeing the future.
//
// The sweep is exhaustive over power modes × numeric precision
// (float32 and the int8 inference rung); policy and adaptation cadence
// stay at the engine's configured values so the bound isolates what
// mode and precision selection alone can achieve. Because the int8
// rung's accuracy cost is invisible to the epoch telemetry (probes
// price latency and energy, not lane error), a fitting float32
// candidate always wins over a fitting int8 one — the oracle spends
// precision only when no float rung can meet the target, mirroring
// the escalation order of the rule-based governors.
type Oracle struct {
	// BudgetW caps the ladder (0 = unconstrained).
	BudgetW int

	ladder []orin.PowerMode
	base   serve.Controls
	// why names the last sweep's outcome, for the trace's governor
	// instants (serve.Explainer).
	why string
}

// Name implements serve.Controller.
func (o *Oracle) Name() string { return "oracle" }

// Explain implements serve.Explainer: whether the last sweep found a
// rung meeting the target or fell back to the best-serving one.
func (o *Oracle) Explain() string { return o.why }

// Start implements serve.Controller: the first epoch runs blind (no
// telemetry yet), so begin on the highest affordable rung — the
// oracle sheds watts the moment the sweep shows they buy nothing.
func (o *Oracle) Start(cfg serve.Config) serve.Controls {
	ladder, err := Ladder(o.BudgetW)
	if err != nil {
		panic(err.Error()) // ByName validates; direct construction must too
	}
	o.ladder = ladder
	o.base = serve.Controls{Mode: ladder[len(ladder)-1], Policy: cfg.Policy, AdaptEvery: cfg.AdaptEvery, Quantized: cfg.Quantized}
	return o.base
}

// Decide implements serve.Controller.
func (o *Oracle) Decide(prev serve.EpochStats, cur serve.Controls, probe func(serve.Controls) serve.EpochStats) serve.Controls {
	type outcome struct {
		c  serve.Controls
		es serve.EpochStats
	}
	var bestFloat, bestInt8, fallback *outcome
	quants := []bool{false, true}
	if o.base.Quantized {
		// The engine is deployed on the int8 rung; there is no float32
		// baseline to prefer.
		quants = []bool{true}
	}
	for _, mode := range o.ladder {
		for _, quant := range quants {
			cand := serve.Controls{Mode: mode, Policy: o.base.Policy, AdaptEvery: o.base.AdaptEvery, Quantized: quant}
			es := probe(cand)
			oc := &outcome{c: cand, es: es}
			if es.DeadlineHitRate >= TargetHitRate && es.QueueDepth <= prev.QueueDepth {
				best := &bestFloat
				if quant {
					best = &bestInt8
				}
				if *best == nil || es.EnergyMJ < (*best).es.EnergyMJ {
					*best = oc
				}
			}
			if fallback == nil ||
				es.DeadlineHitRate > fallback.es.DeadlineHitRate ||
				(es.DeadlineHitRate == fallback.es.DeadlineHitRate && es.EnergyMJ < fallback.es.EnergyMJ) {
				fallback = oc
			}
		}
	}
	if bestFloat != nil {
		o.why = "sweep-fit"
		return bestFloat.c
	}
	if bestInt8 != nil {
		o.why = "sweep-fit-int8"
		return bestInt8.c
	}
	o.why = "sweep-fallback"
	return fallback.c
}
