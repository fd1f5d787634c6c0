package shard

import "fmt"

// Admission control. The legacy contract attaches every stream to a
// board unconditionally at placement time, which at fleet scale means
// a camera coming online during a burst lands on an already-saturated
// board and drags its whole batch below the deadline. With a gate
// configured, streams whose first frame lies beyond the first epoch
// boundary are withheld from initial placement and pass a
// forecast-headroom check at each boundary instead: admit when a board
// fits the stream under the utilization ceiling, otherwise queue for a
// later boundary (losing the frames that pass meanwhile) or shed the
// stream outright, per the policy. Admission looks one epoch ahead —
// a stream is considered at the last boundary before its first frame —
// so a fleet with headroom admits losslessly.

// Admission configures the gate.
type Admission struct {
	// MaxUtil is the forecast-utilization ceiling a board may be
	// filled to by admission, including its forecast load and the
	// arrivals already admitted this boundary (default 0.5, the
	// migration headroom gate).
	MaxUtil float64
	// Queue caps how many arrivals may wait for headroom; one more and
	// the newest waiter is shed. 0 means an unbounded queue.
	Queue int
	// Shed rejects an arrival immediately when no board has headroom
	// instead of queuing it.
	Shed bool
}

// AdmissionRecord is one gate outcome.
type AdmissionRecord struct {
	// Epoch is the boundary the decision fired at; Stream the fleet
	// stream id.
	Epoch, Stream int
	// Board is the admitting board id, -1 when the stream was rejected.
	Board int
	// Waited counts boundaries the stream spent queued for headroom
	// after it first became eligible.
	Waited int
	// DroppedFrames counts the stream's frames lost at the gate: frames
	// that passed while it waited, or its whole schedule on rejection.
	DroppedFrames int
	// Rejected marks a shed stream (queue overflow, shed policy, or a
	// schedule that expired while waiting).
	Rejected bool
}

// pendingStream is one arrival waiting at the gate.
type pendingStream struct {
	gid     int
	arrives float64 // first frame arrival, virtual ms
	since   int     // epoch it became eligible, -1 until then
}

// splitAdmission partitions the fleet for initial placement and
// returns the stream ids to place up front. Without a gate that is
// every stream; with one, later arrivals join the admission queue
// (ordered by stream id — deterministic, and FIFO per boundary since
// eligibility is by arrival time).
func (r *runCtx) splitAdmission() []int {
	upfront := make([]int, 0, len(r.sources))
	for gi, src := range r.sources {
		if r.f.cfg.Admission != nil && len(src.Frames) > 0 {
			if first := float64(src.Frames[0].Arrival) / 1e6; first >= r.f.cfg.EpochMs {
				r.pending = append(r.pending, pendingStream{gid: gi, arrives: first, since: -1})
				continue
			}
		}
		upfront = append(upfront, gi)
	}
	return upfront
}

// admitPass runs the gate at one epoch boundary (after failover and
// evacuation, before the group placers, so admitted load is part of
// the picture the placers and the checkpoint pass see). end is the
// boundary's virtual clock; a stream is eligible once its first frame
// falls inside the next epoch.
func (r *runCtx) admitPass(epoch int, end float64) {
	adm := r.f.cfg.Admission
	if adm == nil || len(r.pending) == 0 {
		return
	}
	cfg := &r.f.cfg
	groups := r.groupView()
	// Load admitted this boundary, per board: the gate packs against
	// it so a burst of arrivals cannot all squeeze under the same
	// stale headroom reading.
	pl := r.newPlan()
	var still []pendingStream
	for _, p := range r.pending {
		if p.arrives >= end+cfg.EpochMs {
			still = append(still, p) // camera not online yet
			continue
		}
		if p.since < 0 {
			p.since = epoch
		}
		src := futureSource(r.sources[p.gid], end)
		if src == nil {
			// Every frame passed while the stream waited: nothing left
			// to admit.
			r.admitReject(epoch, p)
			continue
		}
		// Provision by the camera's nominal rate — the same prior cold
		// recovery uses, since an unattached stream has no forecaster.
		load := src.FPS * cfg.EpochMs / 1000
		util := r.util(load)
		// Hierarchical scoring: groups in ascending mean score (planned
		// load included), then the least-loaded board of the first group
		// that fits the stream under the ceiling — the coolest group's
		// coolest board, found without a fleet-wide stream scan.
		var dst *board
		for _, g := range groupsByMean(groups, pl.score) {
			if dst = pl.pick(groups[g.id], util, adm.MaxUtil); dst != nil {
				break
			}
		}
		if dst == nil {
			if adm.Shed || (adm.Queue > 0 && len(still) >= adm.Queue) {
				r.admitReject(epoch, p)
			} else {
				still = append(still, p)
			}
			continue
		}
		r.rehome(dst, p.gid, r.eng.NewHandoff(src))
		dropped := len(r.sources[p.gid].Frames) - len(src.Frames)
		r.admitDropped += dropped
		r.admissions = append(r.admissions, AdmissionRecord{
			Epoch: epoch, Stream: p.gid, Board: dst.id,
			Waited: epoch - p.since, DroppedFrames: dropped,
		})
		r.rec.Instant("admit", r.nowMs,
			fmt.Sprintf("stream=%d board=%d waited=%d dropped=%d", p.gid, dst.id, epoch-p.since, dropped))
		r.met.admitted.Add(1)
		r.met.admitDroppedFrames.Add(int64(dropped))
		// Hold the consolidation clock so the admitted stream is not
		// immediately re-packed while its telemetry is still settling.
		r.lastCon[p.gid] = epoch
		pl.add(dst, load, util)
		r.energize(dst, load)
	}
	r.pending = still
}

// admitReject sheds a waiting stream: its whole schedule is lost at
// the gate.
func (r *runCtx) admitReject(epoch int, p pendingStream) {
	r.admitDropped += len(r.sources[p.gid].Frames)
	r.admissions = append(r.admissions, AdmissionRecord{
		Epoch: epoch, Stream: p.gid, Board: -1,
		Waited: epoch - p.since, DroppedFrames: len(r.sources[p.gid].Frames), Rejected: true,
	})
	r.rec.Instant("admit-shed", r.nowMs,
		fmt.Sprintf("stream=%d waited=%d dropped=%d", p.gid, epoch-p.since, len(r.sources[p.gid].Frames)))
	r.met.admitRejected.Add(1)
	r.met.admitDroppedFrames.Add(int64(len(r.sources[p.gid].Frames)))
}
