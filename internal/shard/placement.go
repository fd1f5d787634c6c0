// Package shard scales the governed serving engine from one Orin
// board to a fleet of them: a coordinator owns N boards — each a full
// serve engine with its own power ladder and govern controller —
// places camera streams onto boards, steps every board through shared
// control epochs, and migrates the hottest stream off a board whose
// governor is pinned at its top rung while still missing deadlines.
// Migration preserves the stream's adaptation state (BN statistics,
// γ/β, optimizer moments, open window) across the move via
// serve.Session handoffs, so it is also the "stream re-join with
// state" checkpoint: a leave on one board and a rejoin on another.
//
// Placement is the classic machine-scheduling problem (minimize
// makespan over identical machines, cf. arXiv:math/0312216) lifted to
// the governed setting: each machine has a power ladder and a
// closed-loop controller, so a placement that looks balanced by mean
// load can still pin one board at MAXN through every burst while
// another sleeps — which is what saturation-driven migration corrects
// online.
package shard

import (
	"fmt"
	"sort"

	"ldbnadapt/internal/forecast"
	"ldbnadapt/internal/govern"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
)

// Placement assigns streams to boards from forecast per-stream load.
type Placement interface {
	// Name labels the policy in reports and CLIs.
	Name() string
	// Place returns a board index in [0, boards) for every stream.
	// loads[i] is stream i's forecast utilization share of one worker
	// (mean arrival rate × per-frame cost); a board's capacity is
	// workersPerBoard such shares.
	Place(loads []float64, boards, workersPerBoard int) []int
}

// ForecastLoads estimates each stream's utilization share of one
// worker for placement: a fresh forecaster (the same model the live
// control plane runs) is seeded with the stream's admission-epoch
// arrival count — the only observation an online admission controller
// has; the whole-run mean the old estimator used assumes a replay
// oracle — and its prediction is priced at frameMs per frame (the
// zero-queue steady-state per-frame cost,
// serve.Engine.FrameLatencyMs(1) at the board's configured mode) over
// an epochMs control epoch. From the first boundary on, live
// per-stream forecasts in serve.EpochStats supersede these seeds for
// migration and consolidation scoring; a stream whose rate later
// reverses trend is exactly the forecast miss migration exists to fix.
func ForecastLoads(sources []*stream.Source, frameMs, epochMs float64, mk forecast.Factory) []float64 {
	loads := make([]float64, len(sources))
	for i, s := range sources {
		if len(s.Frames) == 0 || epochMs <= 0 {
			continue
		}
		first := float64(s.Frames[0].Arrival) / 1e6
		n := 0
		for _, fr := range s.Frames {
			if float64(fr.Arrival)/1e6 >= first+epochMs {
				break
			}
			n++
		}
		fc := mk()
		fc.Observe(float64(n))
		loads[i] = fc.Forecast() * frameMs / epochMs
	}
	return loads
}

// RoundRobin deals streams across boards in id order — the baseline
// that ignores load entirely.
type RoundRobin struct{}

// Name implements Placement.
func (RoundRobin) Name() string { return "round-robin" }

// Place implements Placement.
func (RoundRobin) Place(loads []float64, boards, _ int) []int {
	out := make([]int, len(loads))
	for i := range out {
		out[i] = i % boards
	}
	return out
}

// LeastLoaded is longest-processing-time-first greedy scheduling:
// streams in descending forecast load, each onto the currently
// least-loaded board. The classic 4/3-approximation to the optimal
// makespan on identical machines.
type LeastLoaded struct{}

// Name implements Placement.
func (LeastLoaded) Name() string { return "least-loaded" }

// Place implements Placement.
func (LeastLoaded) Place(loads []float64, boards, _ int) []int {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	out := make([]int, len(loads))
	acc := make([]float64, boards)
	for _, si := range order {
		best := 0
		for b := 1; b < boards; b++ {
			if acc[b] < acc[best] {
				best = b
			}
		}
		out[si] = best
		acc[best] += loads[si]
	}
	return out
}

// BinPack fills boards to a utilization target before opening the
// next: board k+1 receives its first stream only once board k's
// forecast utilization has reached Target. Consolidating load onto few
// boards minimizes the fleet's static rail draw (empty boards sleep) —
// at the price of saturating the packed boards when the forecast
// underestimates, which is the scenario migration handles.
type BinPack struct {
	// Target is the fill utilization per board (fraction of
	// workersPerBoard worker-capacity; default 0.7).
	Target float64
}

// Name implements Placement.
func (BinPack) Name() string { return "bin-pack" }

func (p BinPack) target() float64 {
	if p.Target > 0 {
		return p.Target
	}
	return 0.7
}

// Place implements Placement.
func (p BinPack) Place(loads []float64, boards, workersPerBoard int) []int {
	cap := p.target() * float64(workersPerBoard)
	out := make([]int, len(loads))
	acc := make([]float64, boards)
	k := 0
	for i, l := range loads {
		for k < boards-1 && acc[k] >= cap {
			k++
		}
		if acc[k] >= cap {
			// Every board is at target: overflow to the least loaded.
			k = 0
			for b := 1; b < boards; b++ {
				if acc[b] < acc[k] {
					k = b
				}
			}
		}
		out[i] = k
		acc[k] += l
	}
	return out
}

// ParsePlacement resolves a placement policy by CLI name.
func ParsePlacement(name string) (Placement, error) {
	switch name {
	case "round-robin":
		return RoundRobin{}, nil
	case "least-loaded":
		return LeastLoaded{}, nil
	case "bin-pack":
		return BinPack{}, nil
	}
	return nil, fmt.Errorf("shard: unknown placement %q (have round-robin/least-loaded/bin-pack)", name)
}

// The placement toolkit: every barrier pass that moves a stream scores
// boards by forecast utilization at the top affordable rung, fills the
// least-loaded first, then energizes the destination.

// util prices forecast frames per epoch as one board's utilization at
// the fleet's top affordable rung: the shared per-frame cost repriced
// from the configured mode to the top rung, over the epoch's worker
// capacity. Saturation, headroom, packing and planned load are all
// scored in this currency.
func (r *runCtx) util(frames float64) float64 {
	top := r.frameMs
	if r.refEff > 0 && r.f.topEff > 0 {
		top = r.frameMs * r.refEff / r.f.topEff
	}
	return frames * top / (r.f.cfg.EpochMs * float64(r.workers))
}

// saturated reports whether a board needs load taken off it — a
// problem the governor cannot resolve with watts, only placement can.
// Two triggers: the reactive one (the epoch ran pinned at its top
// rung and still missed the service target) and the predictive one
// (the forecast demand — next-epoch arrivals plus the backlog already
// queued — exceeds the board's worker capacity even at top-rung
// pricing, so waiting for the governor to finish climbing would just
// let deadlines die in the queue).
func (r *runCtx) saturated(b *board) bool {
	es := b.stats
	if es.Controls.Mode.Watts >= b.satW && es.DeadlineHitRate < govern.TargetHitRate {
		return true
	}
	return es.QueueDepth > 0 && r.util(es.ForecastArrived+float64(es.QueueDepth)) >= 1
}

// forecastUtil is a board's predicted next-epoch utilization at its
// top affordable rung: its streams' forecast arrivals priced at the
// shared per-frame cost over the epoch. The observed utilization —
// rescaled from the rung it was measured at to the top rung, because
// a board running hot at 15 W still has a ladder to climb — is taken
// as a floor: a board draining backlog is busier than its arrivals
// suggest.
func (r *runCtx) forecastUtil(b *board) float64 {
	es := b.stats
	u := r.util(es.ForecastArrived)
	if es.Controls.Mode.EffGFLOPS > 0 && r.f.topEff > 0 {
		if obs := es.Utilization * es.Controls.Mode.EffGFLOPS / r.f.topEff; obs > u {
			u = obs
		}
	}
	return u
}

// streamForecast reads one homed stream's next-epoch arrival forecast
// from its board's last telemetry (zero when the epoch predates the
// stream's attach).
func streamForecast(b *board, gid int) float64 {
	li, ok := b.local[gid]
	if !ok || li >= len(b.stats.StreamForecasts) {
		return 0
	}
	return b.stats.StreamForecasts[li]
}

// eachHomed calls fn for every stream board b homes, in local order.
// b.globals keeps an entry per attach it ever took; an entry is live
// only while the stream is homed here under that local id.
func (r *runCtx) eachHomed(b *board, fn func(li, gid int)) {
	for li, gid := range b.globals {
		if r.home[gid] == b.id && b.local[gid] == li {
			fn(li, gid)
		}
	}
}

// coolest returns the live, non-leaving, unsaturated board in cands
// with the lowest forecast utilization under the maxUtil headroom gate
// (ties to the earliest), passing over any board skip reports (skip
// may be nil); nil when none qualifies.
func (r *runCtx) coolest(cands []*board, skip func(*board) bool) *board {
	var dst *board
	for _, c := range cands {
		if !c.alive || c.leaving || (skip != nil && skip(c)) ||
			r.forecastUtil(c) >= maxUtil || r.saturated(c) {
			continue
		}
		if dst == nil || r.forecastUtil(c) < r.forecastUtil(dst) {
			dst = c
		}
	}
	return dst
}

// plannedLoad is the load one pass has handed a board this boundary:
// util is what the picker scores, frames what energize sizes for.
type plannedLoad struct {
	util, frames float64
	used         bool
}

// plan is a pass's planned load per board id: board telemetry is stale
// within a pass, so without it every pick would land on one board.
type plan struct {
	r  *runCtx
	by []plannedLoad
}

func (r *runCtx) newPlan() plan { return plan{r: r, by: make([]plannedLoad, len(r.boards))} }

// score is b's forecast utilization plus the load planned onto it.
func (p *plan) score(b *board) float64 { return p.r.forecastUtil(b) + p.by[b.id].util }

// pick is the least-loaded destination rule: the non-leaving candidate
// with the lowest score whose score plus util stays within ceiling
// (ties to the earliest candidate), or nil when none fits.
func (p *plan) pick(cands []*board, util, ceiling float64) *board {
	var dst *board
	for _, c := range cands {
		if c.leaving || p.score(c)+util > ceiling {
			continue
		}
		if dst == nil || p.score(c) < p.score(dst) {
			dst = c
		}
	}
	return dst
}

// add books a stream's forecast frames (util when priced) onto dst.
func (p *plan) add(dst *board, frames, util float64) {
	pl := &p.by[dst.id]
	pl.util += util
	pl.frames += frames
	pl.used = true
}

// energize raises every planned destination's rung for the frames it
// was handed, in registry order.
func (p *plan) energize() {
	for _, b := range p.r.boards {
		if p.by[b.id].used {
			p.r.energize(b, p.by[b.id].frames)
		}
	}
}

// groupLoad is one placement group's mean score over its non-leaving
// boards.
type groupLoad struct {
	id   int
	mean float64
}

// groupsByMean orders the groups that have a non-leaving board by
// ascending mean score, ties in group id order.
func groupsByMean(groups [][]*board, score func(*board) float64) []groupLoad {
	var out []groupLoad
	for gi, grp := range groups {
		n, sum := 0, 0.0
		for _, b := range grp {
			if b.leaving {
				continue
			}
			n++
			sum += score(b)
		}
		if n > 0 {
			out = append(out, groupLoad{id: gi, mean: sum / float64(n)})
		}
	}
	if len(out) < 2 {
		return out // a single-group fleet skips the sort's allocation
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].mean < out[j].mean })
	return out
}

// energize raises a migration destination's power mode when its
// current rung cannot serve its post-attach forecast demand — a
// reopened board wakes at whatever rung it froze at (often the ladder
// floor), and waiting one epoch for its governor to notice the
// migrant costs exactly the deadlines the move was meant to save. The
// coordinator knows the incoming load, so it actuates the lowest
// affordable rung that fits; the board's own controller takes over at
// the next boundary, by then fed telemetry that includes the migrant.
// Static deployments are left alone — pinning the mode is their
// contract.
func (r *runCtx) energize(dst *board, extraFrames float64) {
	f := r.f
	if dst.ctl == nil || f.cfg.Governor == "static" {
		return
	}
	es := dst.stats
	demand := es.ForecastArrived + float64(es.QueueDepth) + extraFrames
	utilAt := func(m orin.PowerMode) float64 {
		return demand * r.frameMs * r.refEff / m.EffGFLOPS / (f.cfg.EpochMs * float64(r.workers))
	}
	cur := dst.sess.Controls()
	if utilAt(cur.Mode) <= 0.7 {
		return
	}
	for _, m := range f.ladder {
		if m.Watts <= cur.Mode.Watts {
			continue
		}
		if utilAt(m) <= 0.7 || m.Watts == f.ladder[len(f.ladder)-1].Watts {
			cur.Mode = m
			dst.sess.SetControls(cur)
			return
		}
	}
}

// rehome lands fleet stream gid's handoff on dst and makes dst the
// stream's home.
func (r *runCtx) rehome(dst *board, gid int, h *serve.Handoff) {
	dst.local[gid] = dst.sess.AttachStream(h)
	dst.globals = append(dst.globals, gid)
	r.home[gid] = dst.id
}

// recordMove books one stream move: both boards' counters, the
// Migration record, the migrate trace instant and the fleet counter.
func (r *runCtx) recordMove(src, dst *board, gid, epoch int, reason string) {
	src.out++
	dst.in++
	r.migrations = append(r.migrations, Migration{
		Epoch: epoch, Stream: gid, From: src.id, To: dst.id, Reason: reason,
	})
	r.rec.Instant("migrate", r.nowMs,
		fmt.Sprintf("stream=%d from=%d to=%d reason=%s", gid, src.id, dst.id, reason))
	r.met.migrations.Add(1)
}

// move hands stream gid from src to dst at an epoch boundary, while
// both boards are quiescent, and records the migration. Returns
// false when the stream has no future frames (nothing to migrate — it
// drains where it is).
func (r *runCtx) move(src, dst *board, gid, epoch int, reason string) bool {
	h := src.sess.DetachStream(src.local[gid])
	if h == nil {
		return false
	}
	delete(src.local, gid)
	r.rehome(dst, gid, h)
	r.recordMove(src, dst, gid, epoch, reason)
	return true
}
