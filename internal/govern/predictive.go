package govern

import (
	"ldbnadapt/internal/serve"
)

const (
	// upUtil is the predicted-utilization ceiling above which the
	// governor pre-climbs: high enough that a fitting rung is left
	// alone, low enough that queueing never has to build before watts
	// arrive.
	upUtil = 0.85
	// loadMargin scales the load memory: a rung inside its failure
	// backoff may still be entered when the forecast load is below
	// loadMargin × the smallest load that ever broke it.
	loadMargin = 0.5
	// peakDecay is the per-epoch decay of the peak-load memory that
	// floors descents. Climbs trust the forecast; descents trust
	// max(forecast, decayed peak), because a square-wave burst is
	// exactly what a causal forecaster cannot see coming — the decayed
	// peak is the insurance premium against the next onset, and its
	// half-life prices how long a lull must last before the governor
	// stops paying it.
	peakDecay = 0.9
)

// Predictive is Hysteresis with a feed-forward term: it keeps every
// piece of the reactive machinery — per-rung failure backoff, patience,
// the power budget, cadence-stretch and policy-escalation under
// saturation — and adds the arrival forecast riding in the epoch
// telemetry (serve.EpochStats.ForecastArrived, from internal/forecast)
// as a leading signal on both sides of the ladder:
//
//   - Pre-climb: when the forecast load will not fit the rung the
//     reactive rules chose, jump directly to the lowest affordable
//     rung that fits it. A reactive climber pays one missed epoch per
//     rung it has to climb (a burst onset at 15 W costs a 30 W epoch
//     and a 50 W epoch before MAXN serves); the predictive climber
//     pays only the onset epoch itself — the forecast is causal, so
//     the first bursty epoch still surprises it — and then jumps to
//     the correct rung at the next boundary.
//   - Forecast descent: when a de-escalation window opens (the same
//     patience healthy epochs Hysteresis requires), ride down to the
//     lowest rung the forecast load still fits with the descent
//     margin, instead of paying one patience window of idle draw per
//     rung. A burst tail inflates observed utilization long after the
//     arrivals collapsed; the forecast knows the lull arrived.
//
// Both rules refine the failure backoff with a load memory: an
// unhealthy epoch records the load that overwhelmed its rung, and a
// rung inside its backoff window is still usable when the forecast
// load is well below what broke it. Without that distinction the
// failures Predictive itself logs at intermediate rungs while climbing
// through a burst would poison every lull descent afterwards — while a
// latency-floor rung (15 W misses the deadline even unloaded, a
// failure mode utilization cannot see) stays blocked, because the load
// that broke it was the lull itself. When the forecast is flat and the
// current rung fits it, neither rule fires and Predictive decides
// exactly like Hysteresis.
//
// Capacity is estimated without probes, from the same telemetry a
// rule-based governor already trusts: the epoch's busy-ms per served
// frame, normalized by the epoch mode's EffGFLOPS into a
// mode-independent work-per-frame, smoothed across epochs. Predicted
// utilization of rung m for forecast load F over an epoch of span S on
// W workers is then work/Eff(m) × F / (S×W).
type Predictive struct {
	Hysteresis

	// workPerFrame is the smoothed mode-independent serving cost in
	// ms×GFLOPS per frame; workers and spanMs remember the epoch
	// geometry for idle epochs that serve nothing; peakLoad is the
	// decayed peak-load memory flooring descents.
	workPerFrame float64
	workers      int
	spanMs       float64
	peakLoad     float64
	// failLoad is the load memory: the smallest (arrived + backlog)
	// count observed to leave rung i unhealthy, 0 when the rung has no
	// known failing load. Cleared when the rung serves at least that
	// load healthily.
	failLoad []float64
	// floorBad marks rungs that missed the deadline with an empty
	// queue at low utilization — a latency-floor failure, which no
	// amount of load headroom fixes. The forecast never argues a
	// floor-broken rung back into service; only a healthy served epoch
	// at the rung clears the mark.
	floorBad []bool
}

// Name implements serve.Controller.
func (p *Predictive) Name() string { return "predictive" }

// Start implements serve.Controller.
func (p *Predictive) Start(cfg serve.Config) serve.Controls {
	p.workers = cfg.Workers
	if p.workers <= 0 {
		p.workers = 1
	}
	p.workPerFrame = 0
	p.spanMs = 0
	p.peakLoad = 0
	c := p.Hysteresis.Start(cfg)
	p.failLoad = make([]float64, len(p.ladder))
	p.floorBad = make([]bool, len(p.ladder))
	return c
}

// rungOf locates a mode on the affordable ladder (-1 when off it).
func (p *Predictive) rungOf(watts int) int {
	for i, m := range p.ladder {
		if m.Watts == watts {
			return i
		}
	}
	return -1
}

// Decide implements serve.Controller: the reactive rules run first and
// keep every safety property (budget, escalation order, patience);
// the forecast then corrects the rung they chose on both sides.
func (p *Predictive) Decide(prev serve.EpochStats, cur serve.Controls, probe func(serve.Controls) serve.EpochStats) serve.Controls {
	healthy := prev.DeadlineHitRate >= TargetHitRate && prev.QueueDepth == 0
	if ri := p.rungOf(prev.Controls.Mode.Watts); ri >= 0 {
		load := float64(prev.Arrived + prev.QueueDepth)
		switch {
		case !healthy && prev.QueueDepth == 0 && prev.Utilization < downUtil:
			// Deadlines died with an empty queue on an underworked rung:
			// the rung's latency floor is the problem, not its capacity.
			p.floorBad[ri] = true
		case !healthy:
			if p.failLoad[ri] == 0 || load < p.failLoad[ri] {
				p.failLoad[ri] = load
			}
		case prev.Served > 0:
			p.floorBad[ri] = false // the rung demonstrably serves on time
			if p.failLoad[ri] > 0 && float64(prev.Arrived) >= p.failLoad[ri] {
				p.failLoad[ri] = 0 // and holds at least this load
			}
		}
	}

	next := p.Hysteresis.Decide(prev, cur, probe)
	if span := prev.EndMs - prev.StartMs; span > 0 {
		p.spanMs = span
	}
	if prev.Served > 0 && prev.BusyMs > 0 {
		// Smooth the per-frame work estimate: lull epochs serve singleton
		// batches (expensive per frame), burst epochs coalesce (cheap), and
		// the blend keeps the capacity model from whipsawing between them.
		w := prev.BusyMs / float64(prev.Served) * prev.Controls.Mode.EffGFLOPS
		if p.workPerFrame == 0 {
			p.workPerFrame = w
		} else {
			p.workPerFrame = 0.5*w + 0.5*p.workPerFrame
		}
	}
	if p.workPerFrame == 0 || p.spanMs <= 0 {
		return next
	}
	load := prev.ForecastArrived + float64(prev.QueueDepth) // what must be served next epoch
	p.peakLoad = p.peakLoad * peakDecay
	if observed := float64(prev.Arrived + prev.QueueDepth); observed > p.peakLoad {
		p.peakLoad = observed
	}
	util := func(i int, l float64) float64 {
		return p.workPerFrame / p.ladder[i].EffGFLOPS * l / (p.spanMs * float64(p.workers))
	}
	predUtil := func(i int) float64 { return util(i, load) }
	// usable: the rung's latency floor holds, and it is either out of
	// failure backoff or the forecast load is well below the smallest
	// load that ever broke it.
	usable := func(i int) bool {
		if p.floorBad[i] {
			return false
		}
		return prev.Epoch >= p.retryAt[i] ||
			(p.failLoad[i] > 0 && load < loadMargin*p.failLoad[i])
	}

	if load > 0 {
		// Pre-climb to the lowest affordable usable rung that fits the
		// forecast; saturated already at the top, there is nothing the
		// forecast can add that escalation has not done.
		idx := p.idx
		for idx < len(p.ladder)-1 && (predUtil(idx) > upUtil || !usable(idx)) {
			idx++
		}
		if idx > p.idx {
			p.idx = idx
			p.goodRun = 0 // a fresh rung must re-earn its descent patience
			p.why = "pre-climb"
			next.Mode = p.ladder[idx]
			return next
		}
	}
	// Forecast descent: only inside the de-escalation window the
	// reactive rules opened (a healthy epoch that consumed its
	// patience), and only while policy and cadence are already back at
	// base — power is the last thing Hysteresis restores, and the
	// forecast keeps that order.
	if healthy && p.goodRun == 0 &&
		next.Policy == cur.Policy && next.AdaptEvery == cur.AdaptEvery &&
		next.Quantized == cur.Quantized {
		// Descents are floored by the decayed peak, not just the
		// forecast: the lull says 30 W is plenty, but the last burst is
		// the load the next unforecastable onset will bring.
		descLoad := load
		if p.peakLoad > descLoad {
			descLoad = p.peakLoad
		}
		for p.idx > 0 && usable(p.idx-1) && util(p.idx-1, descLoad) < downUtil {
			p.idx--
			p.why = "forecast-descent"
		}
		next.Mode = p.ladder[p.idx]
	}
	return next
}
