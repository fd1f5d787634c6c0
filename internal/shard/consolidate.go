package shard

import "sort"

// Lull consolidation is the reverse of saturation migration: where
// migration spreads load off a board the governor cannot save with
// watts, consolidation packs load back onto few boards when the
// fleet's forecast says the capacity is no longer needed. The payoff
// is the static rail draw: a board whose streams all left drains its
// in-flight work and sleeps (serve.Session charges no idle energy to
// a drained board), so the 4-rail penalty that keeps governed shards
// above a single board's energy is only paid while the load actually
// needs four boards.
//
// The pass is deliberately conservative: one board per boundary, the
// coldest one, and only when every stream it homes fits on the
// remaining boards under the ConsolidateUtil forecast ceiling —
// a partial drain would move streams without putting any rail to
// sleep, all risk and no payoff.

// conHome describes one homed stream during consolidation planning.
type conHome struct {
	gid  int
	util float64 // provisioning utilization share at the shared frame cost
}

// peakDecay is the per-epoch decay of the coordinator's peak-load
// memory: the insurance half-life that prices how long a lull must
// last before the fleet stops provisioning for the last burst. It is
// deliberately slower than govern.Predictive's per-board decay —
// repacking a whole fleet onto one board is a far more expensive
// mistake than holding one board's rung an epoch too long, so the
// fleet remembers bursts for ~3× longer (half-life ≈ 14 epochs).
const peakDecay = 0.95

// consolidate drains the coldest occupied board in the group when the
// group's provisioning load — each stream's forecast, floored by its
// decayed peak — fits on the others with headroom, migrating its
// streams coldest-first onto the boards with the most headroom. The
// scan is positional over the group slice, so planning state is
// O(group) regardless of fleet size. lastCon is the consolidation
// cooldown clock; lastSat is read-only here — a stream that saturation
// migration just rescued must not be packed straight back into the hot
// spot it escaped.
func (r *runCtx) consolidate(grp []*board, epoch int) {
	cfg := &r.f.cfg
	// Board provisioning loads in utilization units and homed streams,
	// indexed by position in the group slice.
	homed := make([][]conHome, len(grp))
	loads := make([]float64, len(grp))
	for pi, b := range grp {
		if !b.alive || b.leaving || b.sess.Done() {
			// A dead or leaving board takes no part; a drained-and-finished
			// board has nothing to consolidate and nothing worth draining:
			// its streams' schedules ended, every detach would return nil,
			// and selecting it as the perpetual "coldest victim" would
			// block real consolidation elsewhere for the rest of the run.
			continue
		}
		r.eachHomed(b, func(_, gid int) {
			frames := streamForecast(b, gid)
			if r.peak[gid] > frames {
				frames = r.peak[gid]
			}
			u := r.util(frames)
			homed[pi] = append(homed[pi], conHome{gid: gid, util: u})
			loads[pi] += u
		})
	}
	// The victim is the coldest occupied board; it needs company — a
	// group already on one board has nothing left to consolidate.
	victim := -1
	occupied := 0
	for pi := range grp {
		if len(homed[pi]) == 0 {
			continue
		}
		occupied++
		if victim < 0 || loads[pi] < loads[victim] {
			victim = pi
		}
	}
	if occupied < 2 {
		return
	}
	// Plan the full drain: every victim stream must be off cooldown and
	// must fit a keeper under the packing ceiling, or nothing moves.
	streams := append([]conHome(nil), homed[victim]...)
	sort.SliceStable(streams, func(i, j int) bool { return streams[i].util < streams[j].util })
	planned := make([]float64, len(grp))
	dests := make([]int, len(streams))
	for i, s := range streams {
		if epoch-r.lastCon[s.gid] < cooldown || epoch-r.lastSat[s.gid] < cooldown {
			return
		}
		dst := -1
		for pi, b := range grp {
			if pi == victim || len(homed[pi]) == 0 || r.saturated(b) {
				continue // keepers only: occupied, healthy, live boards
			}
			if loads[pi]+planned[pi]+s.util > cfg.ConsolidateUtil {
				continue
			}
			if dst < 0 || loads[pi]+planned[pi] < loads[dst]+planned[dst] {
				dst = pi
			}
		}
		if dst < 0 {
			return // no headroom anywhere: the lull is not deep enough
		}
		dests[i] = dst
		planned[dst] += s.util
	}
	// Execute. A stream with no future frames detaches to nil and stays
	// to drain — it does not keep the board awake, so the drain still
	// completes.
	first := len(r.migrations)
	for i, s := range streams {
		if r.move(grp[victim], grp[dests[i]], s.gid, epoch, Consolidate) {
			r.lastCon[s.gid] = epoch
		}
	}
	if len(r.migrations) > first {
		r.migrations[len(r.migrations)-1].Drained = true
	}
}
