package govern

import (
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
)

// downUtil is the utilization ceiling predicted at the lower rung below
// which a descent is allowed: descending into saturation would climb
// right back — the flap hysteresis exists to prevent.
const downUtil = 0.7

// patience is how many consecutive healthy epochs precede any
// de-escalation.
const patience = 2

// Hysteresis is the deployable rule-based governor: a ladder climber
// with asymmetric inertia. An unhealthy epoch — deadline-hit rate
// below target, or backlog left at the boundary — escalates
// immediately: a floor miss with an empty queue climbs one rung, while
// a backlog left by a near-capacity epoch (saturation) jumps straight
// to the top affordable rung to drain it, cpufreq-ondemand style. Descending requires patience
// consecutive healthy epochs and a load that would still fit the lower
// rung, so a bursty fleet does not flap between modes at every lull. When the top
// affordable rung is still unhealthy, it spends accuracy before
// frames: first stretch the adaptation cadence (fewer LD-BN-ADAPT
// steps to amortize), then drop the forwards to the int8 inference
// rung (Controls.Quantized — cheaper batches at a bounded accuracy
// cost), and only then escalate the overload policy
// (DropNone → SkipAdapt → DropFrames). Recovery retraces the same
// moves in reverse — policy first, precision next, cadence after,
// power last.
//
// By construction the governor never selects a mode above BudgetW.
type Hysteresis struct {
	// BudgetW caps the ladder (0 = unconstrained).
	BudgetW int
	// Backoff is the initial failure backoff in epochs (default 16):
	// how long an unhealthy epoch at a rung blocks descents back into
	// it. Re-failures double it up to 8× the initial value. Measured on
	// the bursty reference scenario, a backoff outlasting the lull is
	// what closes most of the gap to the Oracle — a blind descent into
	// a rung whose latency floor misses costs a whole epoch of
	// deadlines, while holding the higher rung costs only its static
	// draw for a few hundred virtual milliseconds.
	Backoff int

	ladder  []orin.PowerMode
	idx     int
	base    serve.Controls
	goodRun int
	// Per-rung failure memory: an unhealthy epoch at rung i blocks
	// descents into rung i until retryAt[i], with the block doubling on
	// every re-failure (capped) and clearing on a healthy epoch at the
	// rung. This is what stops the governor flapping into a rung whose
	// latency floor simply cannot meet the deadline — a failure mode
	// the utilization fit check cannot see.
	retryAt []int
	backoff []int
	// why names the branch the last Decide took, for the trace's
	// governor instants (serve.Explainer).
	why string
}

// Name implements serve.Controller.
func (h *Hysteresis) Name() string { return "hysteresis" }

// Explain implements serve.Explainer: the branch the last Decide took.
func (h *Hysteresis) Explain() string { return h.why }

func (h *Hysteresis) backoffInit() int {
	if h.Backoff > 0 {
		return h.Backoff
	}
	return 16
}

// Start implements serve.Controller: begin on the lowest affordable
// rung with the engine's configured policy and cadence — the governor
// earns its watts from telemetry rather than assuming the worst case.
func (h *Hysteresis) Start(cfg serve.Config) serve.Controls {
	ladder, err := Ladder(h.BudgetW)
	if err != nil {
		panic(err.Error()) // ByName validates; direct construction must too
	}
	h.ladder = ladder
	h.idx = 0
	h.goodRun = 0
	h.retryAt = make([]int, len(ladder))
	h.backoff = make([]int, len(ladder))
	h.base = serve.Controls{Mode: ladder[0], Policy: cfg.Policy, AdaptEvery: cfg.AdaptEvery, Quantized: cfg.Quantized}
	return h.base
}

// policyLadder orders the overload policies by how much they shed.
var policyLadder = []stream.OverloadPolicy{stream.DropNone, stream.SkipAdapt, stream.DropFrames}

// policyRank locates a policy on the shedding ladder.
func policyRank(p stream.OverloadPolicy) int {
	for i, q := range policyLadder {
		if q == p {
			return i
		}
	}
	return 0
}

// Decide implements serve.Controller.
func (h *Hysteresis) Decide(prev serve.EpochStats, cur serve.Controls, _ func(serve.Controls) serve.EpochStats) serve.Controls {
	next := cur
	healthy := prev.DeadlineHitRate >= TargetHitRate && prev.QueueDepth == 0
	if !healthy {
		h.goodRun = 0
		if b := h.backoffInit(); h.backoff[h.idx] == 0 {
			h.backoff[h.idx] = b
		} else if h.backoff[h.idx] < 8*b {
			h.backoff[h.idx] *= 2
		}
		h.retryAt[h.idx] = prev.Epoch + h.backoff[h.idx]
		if h.idx < len(h.ladder)-1 {
			// Asymmetric response, cpufreq-ondemand style: a backlog
			// left behind by a near-capacity epoch means the rung is
			// saturated — jump straight to the top affordable rung to
			// drain it before more deadlines die in the queue. A floor
			// miss, or a stray queued frame on an otherwise idle rung,
			// just needs the next rung.
			if prev.QueueDepth > 0 && prev.Utilization >= 0.9 {
				h.idx = len(h.ladder) - 1
				h.why = "saturate-jump"
			} else {
				h.idx++
				h.why = "climb"
			}
		} else if h.base.AdaptEvery > 0 && next.AdaptEvery < 4*h.base.AdaptEvery {
			// Saturated at the top affordable rung: amortize adaptation
			// harder before shedding work.
			next.AdaptEvery *= 2
			h.why = "stretch-cadence"
		} else if !next.Quantized {
			// Cadence fully stretched and still saturated: buy throughput
			// with precision — the int8 forwards cost a bounded accuracy
			// error, shedding costs whole frames.
			next.Quantized = true
			h.why = "quantize-int8"
		} else if r := policyRank(next.Policy); r < len(policyLadder)-1 {
			next.Policy = policyLadder[r+1]
			h.why = "escalate-policy"
		} else {
			h.why = "saturated-hold"
		}
		next.Mode = h.ladder[h.idx]
		return next
	}
	h.backoff[h.idx] = 0 // the rung holds this load; forget old failures
	h.goodRun++
	if h.goodRun < patience {
		h.why = "patience"
		next.Mode = h.ladder[h.idx]
		return next
	}
	h.goodRun = 0
	h.why = "hold"
	// De-escalate one move per boundary, retracing escalation in
	// reverse: policy, precision, cadence, then power.
	switch {
	case policyRank(next.Policy) > policyRank(h.base.Policy):
		next.Policy = policyLadder[policyRank(next.Policy)-1]
		h.why = "restore-policy"
	case next.Quantized && !h.base.Quantized:
		next.Quantized = false
		h.why = "restore-precision"
	case next.AdaptEvery != h.base.AdaptEvery:
		next.AdaptEvery /= 2
		if next.AdaptEvery < h.base.AdaptEvery {
			next.AdaptEvery = h.base.AdaptEvery
		}
		h.why = "restore-cadence"
	case h.idx > 0 && prev.Epoch >= h.retryAt[h.idx-1]:
		// Descend only if the lower rung is out of failure backoff and
		// the last epoch's load would fit it: scale observed utilization
		// by the compute-speed ratio.
		lower := h.ladder[h.idx-1]
		ratio := cur.Mode.EffGFLOPS / lower.EffGFLOPS
		if prev.Utilization*ratio < downUtil {
			h.idx--
			h.why = "descend"
		}
	}
	next.Mode = h.ladder[h.idx]
	return next
}
