package shard

// Group placers. Boards partition into placement groups of
// Config.GroupSize (founding board i belongs to group i/GroupSize;
// joins land in the emptiest group). Saturation migration and lull
// consolidation run inside a per-group placer — their scoring scans
// O(group) boards, not O(fleet) — and a top-level fleet placer watches
// the groups' aggregated forecast load, moving a stream across groups
// only when the spread between the hottest and coolest group is one no
// per-group placer can see. Failover re-admission and drain evacuation
// prefer the displaced board's own group and fall back to the whole
// fleet when the group has no eligible survivor: a recovered stream
// anywhere beats a stream served nowhere.

// groupView buckets the live boards by placement group, registry order
// preserved within each group, indexed by group id (gaps are empty
// slices). For a single-group fleet the one bucket is exactly the old
// flat coordinator's live-board scan, which is what keeps the group
// placers' decisions pinned to the lockstep reference.
func (r *runCtx) groupView() [][]*board {
	var out [][]*board
	for _, b := range r.boards {
		if !b.alive {
			continue
		}
		for len(out) <= b.group {
			out = append(out, nil)
		}
		out[b.group] = append(out[b.group], b)
	}
	return out
}

// assignGroup picks the placement group for a board joining mid-run:
// the group with the fewest live members (ties to the lowest id), or a
// fresh group when every existing one is full.
func (r *runCtx) assignGroup() int {
	var counts []int
	for _, b := range r.boards {
		if !b.alive {
			continue
		}
		for len(counts) <= b.group {
			counts = append(counts, 0)
		}
		counts[b.group]++
	}
	best := -1
	for g, n := range counts {
		if n < r.f.cfg.GroupSize && (best < 0 || n < counts[best]) {
			best = g
		}
	}
	if best < 0 {
		return len(counts)
	}
	return best
}

// runGroups runs one boundary of the placement hierarchy: each group's
// placer migrates and consolidates within its own boards, then the
// top-level placer checks the cross-group spread. Consolidation waits
// out boundaries whose group just moved streams (for saturation,
// failover or evacuation): the migrants' forecasts are not yet in any
// board's telemetry, so packing decisions this boundary would run on a
// stale picture of the group.
func (r *runCtx) runGroups(epoch int) {
	cfg := &r.f.cfg
	groups := r.groupView()
	for _, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		moved := len(r.migrations)
		if cfg.Migrate {
			r.migrate(grp, epoch)
		}
		if cfg.Consolidate && len(r.migrations) == moved {
			r.consolidate(grp, epoch)
		}
	}
	if cfg.Migrate {
		r.rebalance(groups, epoch)
	}
}

// migrate sheds streams off each saturated board in the group —
// hottest first, one per eligible destination — onto the group's
// boards with the most forecast headroom, carrying each stream's
// adaptation state (and forecaster) through a serve.Handoff. Both the
// source scan and the destination scoring are O(group): cross-group
// spreads are the top-level rebalancer's job. A destination takes at
// most one migrant per boundary: its epoch stats are stale within the
// pass, and several saturated boards dumping onto the same cool board
// would just move the hot spot. A single saturated board may shed
// several streams in one boundary (one per destination) — a board that
// inherited a packed lull fleet cannot wait an epoch per stream when
// the burst lands.
func (r *runCtx) migrate(grp []*board, epoch int) {
	taken := make(map[*board]bool)
	for _, src := range grp {
		if !src.alive || src.leaving || !r.saturated(src) {
			continue
		}
		// Shed at least one stream (the board is missing its target
		// regardless of what the forecast claims), then keep shedding
		// until the remaining forecast load fits the same headroom gate
		// destinations are held to — or the group runs out of cool
		// boards.
		remaining := r.forecastUtil(src)
		for first := true; first || remaining >= maxUtil; first = false {
			dst := r.coolest(grp, func(c *board) bool { return c == src || taken[c] })
			if dst == nil {
				break // nowhere cooler to go: the whole group is hot
			}
			gid := r.hottest(src, epoch)
			if gid < 0 {
				break
			}
			shedFrames := streamForecast(src, gid)
			if !r.move(src, dst, gid, epoch, Saturate) {
				break
			}
			r.energize(dst, shedFrames)
			r.lastSat[gid] = epoch
			taken[dst] = true
			remaining -= r.util(shedFrames)
		}
	}
}

// hottest picks the stream homed on board src with the highest
// forecast arrivals for the next epoch — the load whose removal the
// forecast says relieves the board soonest. Streams still in their
// saturation-migration cooldown are skipped; consolidation moves do
// not count against it, so a stream packed during a lull can be
// rescued the moment the lull ends. Returns -1 when no eligible
// stream forecasts upcoming arrivals (a saturated board draining
// backlog sheds nothing by migration).
func (r *runCtx) hottest(src *board, epoch int) int {
	best, bestDue := -1, 0.0
	r.eachHomed(src, func(_, gid int) {
		if epoch-r.lastSat[gid] < cooldown {
			return
		}
		if due := streamForecast(src, gid); due > bestDue {
			best, bestDue = gid, due
		}
	})
	return best
}

// rebalance is the top-level fleet placer. It never looks at
// individual streams across the fleet — only at each group's mean
// forecast utilization — and acts when the hottest group's mean
// clears the saturation ceiling while trailing the coolest group by at
// least rebalanceGap: an imbalance the per-group placers are blind to
// because neither group has both ends of it. One stream moves per
// boundary (the hottest eligible stream of the hot group's hottest
// board onto the cool group's least-loaded board with headroom), so
// group telemetry catches up between moves.
func (r *runCtx) rebalance(groups [][]*board, epoch int) {
	loads := groupsByMean(groups, r.forecastUtil)
	if len(loads) < 2 {
		return
	}
	hot, cold := loads[len(loads)-1], loads[0]
	if hot.mean < maxUtil || hot.mean-cold.mean < rebalanceGap {
		return
	}
	var src *board
	for _, b := range groups[hot.id] {
		if b.leaving {
			continue
		}
		if src == nil || r.forecastUtil(b) > r.forecastUtil(src) {
			src = b
		}
	}
	dst := r.coolest(groups[cold.id], nil)
	if src == nil || dst == nil {
		return
	}
	gid := r.hottest(src, epoch)
	if gid < 0 {
		return
	}
	shed := streamForecast(src, gid)
	if !r.move(src, dst, gid, epoch, Rebalance) {
		return
	}
	r.energize(dst, shed)
	r.lastSat[gid] = epoch
}
