package serve

import (
	"fmt"
	"math"

	"ldbnadapt/internal/obs"
	"ldbnadapt/internal/stream"
)

// Explainer is the optional controller extension the observability
// layer consumes: a governor that can say *why* its last Decide moved
// the controls ("pre-climb", "descend", "escalate-policy", ...). The
// interface lives in serve rather than govern so the trace emission
// sites (RunObserved here, the fleet's decide phase in internal/shard)
// need no dependency on any concrete governor package.
type Explainer interface {
	// Explain describes the last Decide's branch in a short stable
	// token; traced verbatim, so keep it deterministic.
	Explain() string
}

// GovernEvent emits a governor-decision instant onto rec when the
// controller actually moved the controls, carrying the before/after
// actuator state and the deciding telemetry (hit rate, backlog,
// utilization) — plus the controller's own reason when it implements
// Explainer. Shared by RunObserved and the fleet's decide phase so
// the single-board and fleet traces use one vocabulary.
func GovernEvent(rec *obs.Recorder, ctl Controller, prev EpochStats, cur, next Controls) {
	if rec == nil || next == cur {
		return
	}
	detail := fmt.Sprintf("mode=%s->%s policy=%s->%s adapt=%d->%d quant=%t->%t hit=%.3f queue=%d util=%.3f",
		cur.Mode.Name, next.Mode.Name, cur.Policy, next.Policy, cur.AdaptEvery, next.AdaptEvery,
		cur.Quantized, next.Quantized,
		prev.DeadlineHitRate, prev.QueueDepth, prev.Utilization)
	if ex, ok := ctl.(Explainer); ok {
		if why := ex.Explain(); why != "" {
			detail += " why=" + why
		}
	}
	rec.Instant("govern", prev.EndMs, detail)
}

// RunObserved is RunGoverned with the observability layer attached:
// the session emits its frame/batch/epoch trace into rec and its
// serve-layer metrics into bm, and every controls change is traced as
// a governor instant. A nil recorder and zero BoardMetrics make it
// exactly RunGoverned (the no-op path costs pointer tests only).
func (e *Engine) RunObserved(sources []*stream.Source, epochMs float64, ctl Controller, rec *obs.Recorder, bm obs.BoardMetrics) Report {
	if len(sources) == 0 {
		return Report{}
	}
	if epochMs <= 0 || ctl == nil {
		epochMs = math.Inf(1)
	}
	s := e.NewSession(sources)
	s.Observe(rec, bm)
	if ctl != nil {
		s.SetControls(ctl.Start(e.cfg))
	}
	for {
		es := s.RunEpoch(s.Now() + epochMs)
		if s.Done() {
			break
		}
		if ctl != nil {
			cur := s.Controls()
			next := ctl.Decide(es, cur, func(c Controls) EpochStats {
				return s.Probe(c, epochMs)
			})
			GovernEvent(rec, ctl, es, cur, next)
			s.SetControls(next)
		}
	}
	return s.Finish()
}
