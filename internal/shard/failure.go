package shard

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
)

// Fault tolerance. The paper's premise — continuous per-stream
// adaptation on edge boards — makes board death expensive: the BN
// statistics, γ/β and optimizer moments a stream accumulated are state
// that took its whole history to build and lives only in the dead
// board's memory. The coordinator therefore checkpoints every homed
// stream's adaptation state into a CheckpointStore on a configurable
// epoch cadence, and when a board dies (injected by a FailurePlan, the
// seeded chaos hook), its orphaned streams are re-admitted onto
// survivors at the same boundary: future frames come from the
// cameras, adaptation state from the last checkpoint (bounded-stale by
// the cadence), placement from the checkpointed forecast through the
// same scoring and destination-energize path live migration uses.
// Frames already queued on the dead board are lost and reported.
//
// Membership is elastic in both directions: a Drain event evacuates a
// board live (nothing lost — the rolling-upgrade path) and retires it
// once its queue drains; a Join event adds a cold board that placement
// starts using immediately.

// EventKind labels a membership event.
type EventKind string

const (
	// Kill removes a board instantly: its queue is lost, its homed
	// streams recover from checkpoints.
	Kill EventKind = "kill"
	// Drain removes a board gracefully: its streams evacuate live
	// (Reason=Evacuate), it serves out its queue, then retires.
	Drain EventKind = "drain"
	// Join adds a fresh cold board to the fleet.
	Join EventKind = "join"
)

// Board targets that resolve against fleet state when the event fires,
// rather than naming a fixed id.
const (
	// HottestBoard targets the live board with the highest forecast
	// utilization that still homes at least one stream.
	HottestBoard = -1
	// ColdestBoard targets the live stream-homing board with the
	// lowest forecast utilization.
	ColdestBoard = -2
)

// FleetEvent is one membership event, applied at the boundary after
// the given fleet epoch completes.
type FleetEvent struct {
	// Epoch is the fleet epoch whose boundary fires the event.
	Epoch int
	// Kind is Kill, Drain or Join.
	Kind EventKind
	// Board is the target id, or HottestBoard/ColdestBoard to resolve
	// by load at fire time (ignored for Join).
	Board int
}

// FailurePlan is a deterministic membership schedule: the chaos-test
// and rolling-upgrade injection point. Events that target a board
// already dead or leaving, or that fire after the fleet drains, are
// skipped.
type FailurePlan struct {
	Events []FleetEvent
}

// ParsePlan parses a CLI chaos spec: comma-separated
// "kind[:target]@epoch" events, where kind is kill/drain/join and
// target is a board id, "hot" or "cold" (default hot; join takes no
// target). Example: "kill:hot@12,join@14,drain:0@20".
func ParsePlan(spec string) (*FailurePlan, error) {
	p := &FailurePlan{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		head, at, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("shard: event %q has no @epoch", part)
		}
		epoch, err := strconv.Atoi(at)
		if err != nil || epoch < 0 {
			return nil, fmt.Errorf("shard: event %q has bad epoch %q", part, at)
		}
		kindS, targetS, hasTarget := strings.Cut(head, ":")
		ev := FleetEvent{Epoch: epoch, Kind: EventKind(kindS), Board: HottestBoard}
		switch ev.Kind {
		case Kill, Drain:
			if hasTarget {
				switch targetS {
				case "hot":
					ev.Board = HottestBoard
				case "cold":
					ev.Board = ColdestBoard
				default:
					id, err := strconv.Atoi(targetS)
					if err != nil || id < 0 {
						return nil, fmt.Errorf("shard: event %q has bad target %q", part, targetS)
					}
					ev.Board = id
				}
			}
		case Join:
			if hasTarget {
				return nil, fmt.Errorf("shard: join event %q takes no target", part)
			}
			ev.Board = 0
		default:
			return nil, fmt.Errorf("shard: unknown event kind %q (have kill/drain/join)", kindS)
		}
		p.Events = append(p.Events, ev)
	}
	if len(p.Events) == 0 {
		return nil, fmt.Errorf("shard: empty chaos plan %q", spec)
	}
	return p, nil
}

// EventRecord is one fired membership event and its outcome.
type EventRecord struct {
	// Epoch is the fleet epoch the event fired at; Kind and Board the
	// resolved event (Board is the new incarnation's id for a Join).
	Epoch int
	Kind  EventKind
	Board int
	// Streams counts streams the event displaced (orphans re-admitted
	// for a Kill, streams evacuated for a Drain).
	Streams int
	// Recovered and Cold split a Kill's re-admissions by whether the
	// stream resumed from its checkpoint or restarted cold.
	Recovered, Cold int
	// LostFrames counts frames destroyed in a killed board's queue.
	LostFrames int
}

// pendingKill is a board killed at this boundary, awaiting orphan
// re-admission (which runs after the governors).
type pendingKill struct {
	b       *board
	orphans []int
	lost    int
}

// resolve maps an event target to a live, non-leaving board (nil when
// nothing qualifies — the event is skipped). Hottest/coldest consider
// only boards homing at least one stream, because killing or draining
// an empty board is a no-op nobody schedules chaos for.
func (r *runCtx) resolve(target int) *board {
	if target >= 0 {
		if target < len(r.boards) && r.boards[target].alive && !r.boards[target].leaving {
			return r.boards[target]
		}
		return nil
	}
	homes := make(map[int]int)
	for _, h := range r.home {
		if h >= 0 {
			homes[h]++
		}
	}
	var pick *board
	for _, b := range r.boards {
		if !b.alive || b.leaving || homes[b.id] == 0 {
			continue
		}
		if pick == nil {
			pick = b
			continue
		}
		u, best := r.forecastUtil(b), r.forecastUtil(pick)
		if (target == HottestBoard && u > best) || (target == ColdestBoard && u < best) {
			pick = b
		}
	}
	return pick
}

// applyEvents fires this boundary's membership events: kills finalize
// immediately (orphans are collected for recoverOrphans), drains mark
// the board leaving (evacuation follows the governors), joins open a
// fresh incarnation already caught up to the fleet clock.
func (r *runCtx) applyEvents(epoch int, end float64) {
	if r.f.cfg.Plan == nil {
		return
	}
	for _, ev := range r.f.cfg.Plan.Events {
		if ev.Epoch != epoch {
			continue
		}
		switch ev.Kind {
		case Kill:
			if b := r.resolve(ev.Board); b != nil {
				r.kill(b, epoch)
			}
		case Drain:
			if b := r.resolve(ev.Board); b != nil {
				b.leaving = true
				r.pendingDrains = append(r.pendingDrains, b)
				r.rec.Instant("drain", r.nowMs, fmt.Sprintf("board=%d epoch=%d", b.id, epoch))
			}
		case Join:
			id := len(r.boards)
			b := r.f.openBoard(r.eng, id, epoch, nil)
			b.group = r.assignGroup()
			// One zero-cost epoch catches the empty session's clock up to
			// the fleet boundary, so its first real epoch is in lockstep.
			b.do(func() { b.step(end) })
			r.boards = append(r.boards, b)
			r.events = append(r.events, EventRecord{Epoch: epoch, Kind: Join, Board: id})
			r.rec.Instant("join", r.nowMs, fmt.Sprintf("board=%d group=%d epoch=%d", id, b.group, epoch))
		}
	}
}

// kill removes a board instantly: the session finalizes with whatever
// it served (and the board's actor stops), frames still queued are
// counted lost, and the streams it homed become orphans for
// recoverOrphans.
func (r *runCtx) kill(b *board, epoch int) {
	b.alive, b.leaveEpoch = false, epoch
	rep := b.retire()
	arrived := 0
	for _, es := range rep.Epochs {
		arrived += es.Arrived
	}
	pk := pendingKill{b: b, lost: arrived - rep.Frames - rep.FramesDropped}
	for gid, h := range r.home {
		if h == b.id {
			pk.orphans = append(pk.orphans, gid)
		}
	}
	r.pendingKills = append(r.pendingKills, pk)
	r.rec.Instant("kill", r.nowMs,
		fmt.Sprintf("board=%d epoch=%d lost=%d orphans=%d", b.id, epoch, pk.lost, len(pk.orphans)))
	r.met.lostFrames.Add(int64(pk.lost))
}

// futureSource clips a stream's original source to the frames the
// cameras have not yet delivered at the boundary — what a dead board's
// stream still has left to serve. Frames the dead board had already
// received are gone; frames from the boundary on re-home with the
// stream.
func futureSource(src *stream.Source, endMs float64) *stream.Source {
	var fut []stream.Frame
	for _, fr := range src.Frames {
		if float64(fr.Arrival)/1e6 >= endMs {
			fut = append(fut, fr)
		}
	}
	if len(fut) == 0 {
		return nil
	}
	return &stream.Source{FPS: src.FPS, Frames: fut}
}

// survivorCandidates scopes failover and evacuation destinations to
// the displaced board's own placement group — O(group) scoring — with
// the whole fleet as the fallback when the group has no live,
// non-leaving survivor: a recovered stream anywhere beats a stream
// served nowhere.
func (r *runCtx) survivorCandidates(group int) []*board {
	var ingrp, all []*board
	for _, b := range r.boards {
		if !b.alive || b.leaving {
			continue
		}
		all = append(all, b)
		if b.group == group {
			ingrp = append(ingrp, b)
		}
	}
	if len(ingrp) > 0 {
		return ingrp
	}
	return all
}

// recoverOrphans re-admits every killed board's orphaned streams onto
// survivors, hottest first: adaptation state from the stream's last
// checkpoint when one decodes (cold otherwise), destination chosen by
// the same forecast-utilization scoring live migration uses — least
// loaded in the dead board's group (fleet-wide only when the group
// died with it), including the load already replanned onto it this
// boundary — and energized for the incoming demand. Re-admission never
// blocks on headroom: a recovered stream on a warm board beats a
// stream served nowhere. The stream's saturation cooldown is left
// untouched, so a migrant that lands hot stays immediately rescuable.
func (r *runCtx) recoverOrphans(epoch int, end float64) {
	if len(r.pendingKills) == 0 {
		return
	}
	for _, pk := range r.pendingKills {
		cands := r.survivorCandidates(pk.b.group)
		ev := EventRecord{Epoch: epoch, Kind: Kill, Board: pk.b.id, LostFrames: pk.lost}
		type orphan struct {
			gid  int
			src  *stream.Source
			h    *serve.Handoff
			load float64 // forecast next-epoch frames
		}
		var orphans []orphan
		for _, gid := range pk.orphans {
			src := futureSource(r.sources[gid], end)
			if src == nil {
				continue // the stream's schedule ended; nothing to revive
			}
			o := orphan{gid: gid, src: src}
			if r.store != nil {
				if data, ok, err := r.store.Latest(gid); err != nil {
					r.ckptErrs++
				} else if ok {
					if c, derr := r.eng.DecodeCheckpoint(bytes.NewReader(data)); derr != nil {
						r.ckptErrs++
					} else {
						o.h = r.eng.RestoreHandoff(c, src)
					}
				}
			}
			if o.h != nil {
				o.load = o.h.Forecast()
				ev.Recovered++
			} else {
				o.h = r.eng.NewHandoff(src)
				ev.Cold++
			}
			if o.load <= 0 {
				// No forecaster history: provision by the camera's nominal
				// rate, the same prior cold admission uses.
				o.load = src.FPS * r.f.cfg.EpochMs / 1000
			}
			orphans = append(orphans, o)
		}
		sort.SliceStable(orphans, func(i, j int) bool { return orphans[i].load > orphans[j].load })
		p := r.newPlan()
		for _, o := range orphans {
			u := r.util(o.load)
			dst := p.pick(cands, u, math.Inf(1))
			if dst == nil {
				break // no survivors: the remaining orphans die with the fleet
			}
			// The dead board's actor is gone and the handoff was rebuilt
			// from the checkpoint, so there is nothing to detach: the
			// re-home is an attach plus the move's bookkeeping.
			r.rehome(dst, o.gid, o.h)
			r.recordMove(pk.b, dst, o.gid, epoch, Failover)
			// Hold the consolidation clock so the recovered stream is not
			// immediately re-packed while its telemetry is still settling.
			r.lastCon[o.gid] = epoch
			p.add(dst, o.load, u)
			ev.Streams++
		}
		p.energize()
		r.events = append(r.events, ev)
	}
	r.pendingKills = nil
}

// evacuateLeavers moves every stream off boards marked leaving at this
// boundary — coldest first onto the least-loaded survivors in the
// leaver's group (fleet-wide when the group has no other survivor),
// the same packing order consolidation uses but unconditional: the
// board is leaving whether or not the lull is deep enough, so there is
// no headroom ceiling to refuse at. The handoffs are live (full state,
// open windows, forecasters), which is what makes Drain the lossless
// rolling-upgrade path. The last successful move carries Drained, and
// the board retires once its in-flight queue empties.
func (r *runCtx) evacuateLeavers(epoch int) {
	if len(r.pendingDrains) == 0 {
		return
	}
	for _, b := range r.pendingDrains {
		if !b.alive {
			continue // already retired: it was Done the moment it was marked
		}
		cands := r.survivorCandidates(b.group)
		ev := EventRecord{Epoch: epoch, Kind: Drain, Board: b.id}
		type item struct {
			gid  int
			load float64
		}
		var items []item
		r.eachHomed(b, func(_, gid int) {
			items = append(items, item{gid: gid, load: streamForecast(b, gid)})
		})
		sort.SliceStable(items, func(i, j int) bool { return items[i].load < items[j].load })
		p := r.newPlan()
		first := len(r.migrations)
		for _, it := range items {
			u := r.util(it.load)
			dst := p.pick(cands, u, math.Inf(1))
			if dst == nil {
				break // nowhere to go: the board keeps serving until done
			}
			if !r.move(b, dst, it.gid, epoch, Evacuate) {
				continue // no future frames: the stream drains in place
			}
			r.lastCon[it.gid] = epoch
			p.add(dst, it.load, u)
			ev.Streams++
		}
		if len(r.migrations) > first {
			r.migrations[len(r.migrations)-1].Drained = true
		}
		p.energize()
		r.events = append(r.events, ev)
	}
	r.pendingDrains = nil
}

// checkpointPass writes every homed stream's adaptation state into the
// store on the configured cadence — after the boundary's placement, so
// each checkpoint reflects the stream's current home and the state its
// next epoch will start from. Encoding runs on each board's actor (one
// broadcast, each board appending into buffers it keeps across
// passes); only the store writes stay serial on the coordinator, after
// the barrier and in board/stream order, so the pass is deterministic.
// A store keeps no reference to the bytes it is given
// (serve.CheckpointStore), so the next pass may overwrite them.
func (r *runCtx) checkpointPass(epoch int) {
	every := r.f.cfg.CheckpointEvery
	if r.store == nil || every <= 0 || epoch%every != 0 {
		return
	}
	var bs []*board
	for _, b := range r.boards {
		j := &b.ckpt
		j.locals, j.globals = j.locals[:0], j.globals[:0]
		if b.alive {
			r.eachHomed(b, func(li, gid int) {
				j.locals = append(j.locals, li)
				j.globals = append(j.globals, gid)
			})
		}
		// Drop the buffers past the streams the board homes now, so a
		// board keeps no encodings of streams that moved away.
		if len(j.enc) > len(j.locals) {
			clear(j.enc[len(j.locals):])
			j.enc = j.enc[:len(j.locals)]
		}
		if len(j.locals) > 0 {
			bs = append(bs, b)
		}
	}
	r.f.broadcast(bs, func(b *board) { b.encode(epoch) })
	c0, e0 := r.ckpts, r.ckptErrs
	for _, b := range bs {
		j := &b.ckpt
		for k, d := range j.enc {
			if err := r.store.Put(j.globals[k], d); err != nil {
				r.ckptErrs++
				continue
			}
			r.ckpts++
		}
	}
	if wrote, failed := r.ckpts-c0, r.ckptErrs-e0; wrote > 0 || failed > 0 {
		r.rec.Instant("checkpoint", r.nowMs,
			fmt.Sprintf("epoch=%d written=%d errors=%d", epoch, wrote, failed))
		r.met.checkpoints.Add(int64(wrote))
		r.met.checkpointErrors.Add(int64(failed))
	}
}
