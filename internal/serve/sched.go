package serve

import (
	"fmt"
	"math"
	"sort"

	"ldbnadapt/internal/obs"
	"ldbnadapt/internal/stream"
)

// adaptAction is the scheduler's decision for one served frame: whether
// the frame closes its stream's adaptation window, and if so whether
// the due step runs or is shed by the overload policy.
type adaptAction uint8

const (
	// adaptNone: the frame joins its stream's window; no step is due.
	adaptNone adaptAction = iota
	// adaptStep: the frame completes the window and the step runs.
	adaptStep
	// adaptSkip: the frame completes the window but the step is shed
	// (SkipAdapt under pressure). The window is consumed without a step.
	adaptSkip
)

// plannedFrame is one frame after scheduling: its measured event-time
// accounting plus the adaptation decision the executing worker must
// honor. latencyMs and energyMJ may still be amended retroactively by
// a later dispatch that completes the frame's adaptation window, so
// executing workers never read them — the report reads them once all
// planning is done.
type plannedFrame struct {
	stream int
	frame  stream.Frame
	// queueMs is the measured wait from camera arrival to batch
	// dispatch on the virtual clock.
	queueMs float64
	// latencyMs = queueMs + amortized batched-forward share + (for
	// frames of a window whose step ran) the step's amortized share.
	latencyMs float64
	// energyMJ is the frame's dynamic-energy attribution in
	// millijoules: Watts at dispatch × its forward share, plus Watts at
	// step time × its adaptation-step share. Summed over frames it
	// equals the per-dispatch Watts × busy-ms total exactly.
	energyMJ float64
	action   adaptAction
	// windowed marks frames that joined their stream's adaptation
	// window (false while adaptation is disabled), so the executing
	// worker accumulates exactly the samples the plan accounted.
	windowed bool
	// shared marks windowed frames whose adaptation-step share has
	// landed; telemetry estimates the steady-state share for the rest
	// so epoch hit rates do not read optimistically at slow cadences.
	shared bool
	// acc and pts are the frame's functional outcome, its accuracy and
	// scored points against the hidden labels: written once by the
	// executing worker, read only by the report.
	acc float64
	pts int
}

// plannedBatch is one coalesced dispatch: which frames, when (virtual
// time), on which virtual worker, and on which numeric path (the
// Quantized control at planning time, honored by the executing
// worker).
type plannedBatch struct {
	dispatchMs float64
	worker     int
	quantized  bool
	frames     []plannedFrame
}

// schedStream is the per-stream shed/backlog accounting accumulated
// while planning.
type schedStream struct {
	dropped  int
	skipped  int
	maxDepth int
}

// schedule is the full event-time plan for a fleet: every dispatch with
// its frames priced, plus the shed and energy accounting the report
// needs beyond the planned frames.
type schedule struct {
	batches    []plannedBatch
	streams    []schedStream
	makespanMs float64
	// busyMs is the aggregate virtual worker busy time and
	// busyEnergyMJ its dynamic energy: Σ over dispatches of
	// Watts(mode at dispatch) × busy interval.
	busyMs       float64
	busyEnergyMJ float64
}

// arrival is one camera frame on the fleet-wide event list.
type arrival struct {
	stream int
	frame  stream.Frame
	arrMs  float64
}

// planner runs the event-time virtual-clock scheduler over a fleet,
// resumably: runUntil plans every dispatch up to a virtual-time bound
// and preserves the queue, per-worker busy intervals, backlog depths
// and open adaptation windows, so the next call — possibly under
// different Controls — continues exactly where planning stopped. With
// an infinite bound it reproduces the original one-shot plan; the
// epoch loop of RunGoverned calls it once per control epoch.
//
// The clock is driven by frame arrival timestamps and the Orin-priced
// cost of the work actually dispatched. Batching follows the dynamic
// batcher's contract in virtual time: the oldest queued frame opens a
// batch, which becomes ready when MaxBatch frames have arrived or the
// Window grace expires, whichever is first; dispatch happens at the
// later of that readiness and the earliest virtual worker becoming
// free. Frames arriving while the batch waits for a worker coalesce
// into it (up to MaxBatch), which is what lets a backlogged engine
// recover throughput by batching harder.
//
// Worker occupancy is charged per dispatch: the whole-batch forward
// price for the actual coalesced size plus one full adaptation step
// per window completed in the batch — not a per-frame worst case.
// Dynamic energy is charged alongside as Watts × that busy interval.
//
// The overload policy decides what to shed when a stream falls behind
// (its frames queue longer than Backlog camera periods):
//
//   - DropNone serves everything; under overload the queue — and every
//     frame's measured wait — grows without bound.
//   - SkipAdapt serves every frame but sheds due adaptation steps while
//     the stream is behind.
//   - DropFrames sheds queued frames that are already older than the
//     backlog cap at dispatch time, so served frames' waits stay
//     bounded by Backlog periods.
type planner struct {
	e  *Engine
	sc *schedule

	// all is the arrival-ordered fleet event list (read-only after
	// construction; clones share it).
	all  []arrival
	next int

	pending []arrival
	head    int

	workers []float64 // virtual busy-until times
	depth   []int     // per-stream backlog (arrived, not served/shed)
	shedMs  []float64 // per-stream backlog cap in ms

	// Per-stream adaptation windows: served frames since the last step,
	// and the planned frames awaiting their step's amortized share
	// (assigned retroactively when the window completes).
	sinceAdapt []int
	window     [][]*plannedFrame

	// served and shed are cumulative counters for backlog telemetry.
	served, shed int
	// arrSeen indexes the first arrival not yet counted into epoch
	// telemetry, and arrOld the first not yet old enough to count as
	// backlog (both independent of the batching pointers above).
	arrSeen, arrOld int

	// Dynamic controls: the actuator state for subsequent planning.
	ctrl Controls
	tbl  *modeTable

	// arena is the current plannedFrame slab: per-dispatch batches are
	// carved from it so a steady-state epoch loop allocates one chunk
	// per ~arenaChunk frames instead of one slice per dispatch. Chunks
	// are never recycled within a run (committed batches and open
	// adaptation windows hold pointers into them); clone severs the
	// slab so probe batches land in probe-owned chunks.
	arena []plannedFrame

	// rec receives the planner's trace events (frame lifecycles, batch
	// and adapt spans) and bm its serve-layer metrics. Both default to
	// no-op — nil recorder, all-nil instruments — so the hot loop pays
	// only pointer tests when observability is off; clone nils them so
	// what-if probes never emit.
	rec *obs.Recorder
	bm  obs.BoardMetrics
}

// newPlanner flattens the fleet into one arrival-ordered event list.
// Per-stream order is preserved; ties across streams break by stream
// id so the plan is deterministic.
func (e *Engine) newPlanner(sources []*stream.Source) *planner {
	nStreams := len(sources)
	p := &planner{
		e:          e,
		sc:         &schedule{streams: make([]schedStream, nStreams)},
		workers:    make([]float64, e.cfg.Workers),
		depth:      make([]int, nStreams),
		shedMs:     make([]float64, nStreams),
		sinceAdapt: make([]int, nStreams),
		window:     make([][]*plannedFrame, nStreams),
	}
	total := 0
	for _, src := range sources {
		total += len(src.Frames)
	}
	p.all = make([]arrival, 0, total)
	p.pending = make([]arrival, 0, e.cfg.MaxBatch)
	for si, src := range sources {
		periodMs := float64(src.Period()) / 1e6
		p.shedMs[si] = float64(e.cfg.Backlog) * periodMs
		for _, fr := range src.Frames {
			p.all = append(p.all, arrival{stream: si, frame: fr, arrMs: float64(fr.Arrival) / 1e6})
		}
	}
	sort.SliceStable(p.all, func(i, j int) bool {
		if p.all[i].arrMs != p.all[j].arrMs {
			return p.all[i].arrMs < p.all[j].arrMs
		}
		return p.all[i].stream < p.all[j].stream
	})
	return p
}

// addStream extends the planner with one more stream — a migrated
// stream attaching mid-run. Its arrivals must not predate the last
// finalized epoch boundary; they merge into the unplanned suffix of
// the event list (ties after existing streams, matching the
// stream-id tie-break of the initial sort). sinceAdapt seeds the
// stream's adaptation window so a cadence interrupted mid-window on
// the source board resumes where it stopped.
func (p *planner) addStream(src *stream.Source, sinceAdapt int) int {
	si := len(p.depth)
	p.depth = append(p.depth, 0)
	p.shedMs = append(p.shedMs, float64(p.e.cfg.Backlog)*float64(src.Period())/1e6)
	p.sinceAdapt = append(p.sinceAdapt, sinceAdapt)
	p.window = append(p.window, nil)
	p.sc.streams = append(p.sc.streams, schedStream{})
	suffix := p.all[p.arrSeen:]
	merged := make([]arrival, 0, len(suffix)+len(src.Frames))
	j := 0
	for _, fr := range src.Frames {
		a := arrival{stream: si, frame: fr, arrMs: float64(fr.Arrival) / 1e6}
		for j < len(suffix) && suffix[j].arrMs <= a.arrMs {
			merged = append(merged, suffix[j])
			j++
		}
		merged = append(merged, a)
	}
	merged = append(merged, suffix[j:]...)
	p.all = append(p.all[:p.arrSeen:p.arrSeen], merged...)
	return si
}

// setControls switches the planner's actuators for subsequent
// dispatches. Panics if the mode has no pricing table (governors must
// choose from orin.Modes or the engine's configured mode).
func (p *planner) setControls(c Controls) {
	if c.Mode.Name == "" {
		c.Mode = p.e.cfg.Mode
	}
	if c.AdaptEvery < 0 {
		c.AdaptEvery = 0
	}
	p.tbl = p.e.tableFor(c.Mode, c.Quantized)
	p.ctrl = c
}

// arenaChunk is the largest plannedFrame slab: one allocation
// amortizes over this many planned frames at steady state.
const arenaChunk = 256

// takeBatch returns an empty batch slice carved from the arena with
// room for a full MaxBatch, starting a fresh chunk when the current
// one cannot hold one. Chunks double from one MaxBatch up to
// arenaChunk: a probe's clone starts with no arena and plans one
// epoch, so it allocates in proportion to that epoch rather than a
// full slab per probe. The caller appends up to MaxBatch frames and
// commits the result with commitBatch; pointers into the slab stay
// valid for the run because chunks never grow or get recycled.
func (p *planner) takeBatch() []plannedFrame {
	if cap(p.arena)-len(p.arena) < p.e.cfg.MaxBatch {
		n := min(max(2*cap(p.arena), p.e.cfg.MaxBatch), max(arenaChunk, p.e.cfg.MaxBatch))
		p.arena = make([]plannedFrame, 0, n)
	}
	return p.arena[len(p.arena):len(p.arena)]
}

// commitBatch marks the batch's frames as used slab space and returns
// the batch with its capacity clamped, so later chunk carving can
// never alias a committed dispatch.
func (p *planner) commitBatch(batch []plannedFrame) []plannedFrame {
	p.arena = p.arena[:len(p.arena)+len(batch)]
	return batch[:len(batch):len(batch)]
}

// remaining reports whether any frame is still waiting to be planned.
func (p *planner) remaining() bool {
	return p.next < len(p.all) || p.head < len(p.pending)
}

// clone snapshots the planner for a what-if probe: the copy shares the
// read-only event list but owns every piece of mutable state. Open
// adaptation windows are deep-copied so a simulated step assigns its
// retroactive shares to throwaway frames, never to the real plan.
func (p *planner) clone() *planner {
	q := *p
	scCopy := *p.sc
	scCopy.batches = nil // probes never execute; stats don't need the dispatch list
	scCopy.streams = append([]schedStream(nil), p.sc.streams...)
	q.sc = &scCopy
	q.pending = append([]arrival(nil), p.pending...)
	q.workers = append([]float64(nil), p.workers...)
	q.depth = append([]int(nil), p.depth...)
	q.sinceAdapt = append([]int(nil), p.sinceAdapt...)
	q.window = make([][]*plannedFrame, len(p.window))
	for i, w := range p.window {
		cw := make([]*plannedFrame, len(w))
		for j, f := range w {
			cp := *f
			cw[j] = &cp
		}
		q.window[i] = cw
	}
	q.rec = nil
	q.bm = obs.BoardMetrics{}
	// Sever the slab: probe dispatches must carve probe-owned chunks,
	// never write into slots the real planner will hand out later.
	q.arena = nil
	return &q
}

// absorb moves one arrival into the pending queue and tracks backlog
// depth.
func (p *planner) absorb(a arrival) {
	p.pending = append(p.pending, a)
	si := a.stream
	p.depth[si]++
	if p.depth[si] > p.sc.streams[si].maxDepth {
		p.sc.streams[si].maxDepth = p.depth[si]
	}
}

// runUntil plans every dispatch with virtual dispatch time < endMs
// under the current controls, accumulating epoch telemetry into es. Batches whose dispatch falls at or beyond endMs are
// left for the next call, which recomputes them identically when the
// controls have not changed — an epoch partition with static controls
// reproduces the one-shot schedule exactly.
func (p *planner) runUntil(endMs float64, es *EpochStats) {
	e := p.e
	cfg := e.cfg
	for p.remaining() {
		if p.head == len(p.pending) {
			if p.all[p.next].arrMs >= endMs {
				break // the next batch opens in a later epoch
			}
			p.pending = p.pending[:0]
			p.head = 0
			p.absorb(p.all[p.next])
			p.next++
			continue
		}
		open := p.pending[p.head].arrMs
		// Readiness: MaxBatch-th arrival counting from the batch opener
		// (wherever it currently is — queued or still in the future), or
		// window expiry.
		tFull := math.Inf(1)
		queued := len(p.pending) - p.head
		if queued >= cfg.MaxBatch {
			tFull = p.pending[p.head+cfg.MaxBatch-1].arrMs
		} else if j := p.next + (cfg.MaxBatch - queued) - 1; j < len(p.all) {
			tFull = p.all[j].arrMs
		}
		ready := open + e.windowMs
		if tFull < ready {
			ready = tFull
		}
		wi := 0
		for w := 1; w < len(p.workers); w++ {
			if p.workers[w] < p.workers[wi] {
				wi = w
			}
		}
		dispatch := ready
		if p.workers[wi] > dispatch {
			dispatch = p.workers[wi]
		}
		if dispatch >= endMs {
			break // dispatches in a later epoch, possibly under new controls
		}
		// Absorb every frame that has arrived by dispatch time.
		for p.next < len(p.all) && p.all[p.next].arrMs <= dispatch {
			p.absorb(p.all[p.next])
			p.next++
		}
		// Form the batch, shedding stale frames under DropFrames.
		batch := p.takeBatch()
		for p.head < len(p.pending) && len(batch) < cfg.MaxBatch {
			a := p.pending[p.head]
			if a.arrMs > dispatch {
				break
			}
			p.head++
			p.depth[a.stream]--
			if p.ctrl.Policy == stream.DropFrames && dispatch-a.arrMs > p.shedMs[a.stream] {
				p.sc.streams[a.stream].dropped++
				p.shed++
				p.bm.Dropped.Add(1)
				if p.rec != nil {
					p.rec.Frame(a.stream, a.frame.Index, a.arrMs, dispatch, "shed")
				}
				es.FramesDropped++
				continue
			}
			batch = append(batch, plannedFrame{stream: a.stream, frame: a.frame})
		}
		if len(batch) == 0 {
			continue // everything stale was shed; replan from the survivors
		}
		batch = p.commitBatch(batch)
		n := len(batch)
		watts := float64(p.ctrl.Mode.Watts)
		steps := 0
		for i := range batch {
			f := &batch[i]
			f.queueMs = dispatch - float64(f.frame.Arrival)/1e6
			f.latencyMs = f.queueMs + p.tbl.batchEst[n].PerFrameMs
			f.energyMJ = watts * p.tbl.batchEst[n].PerFrameMs
			p.bm.QueueWaitMs.Observe(f.queueMs)
			if p.ctrl.AdaptEvery <= 0 {
				continue
			}
			f.windowed = true
			si := f.stream
			p.window[si] = append(p.window[si], f)
			p.sinceAdapt[si]++
			if p.sinceAdapt[si] < p.ctrl.AdaptEvery {
				continue
			}
			if p.ctrl.Policy == stream.SkipAdapt && f.queueMs > p.shedMs[si] {
				f.action = adaptSkip
				p.sc.streams[si].skipped++
				p.bm.Skipped.Add(1)
				es.AdaptsSkipped++
			} else {
				f.action = adaptStep
				if p.rec != nil {
					// Adapt steps run serially after the batched forward in
					// the busy model; the span start replays that layout.
					start := dispatch + p.tbl.batchEst[n].BatchMs + float64(steps)*p.tbl.adaptPerStepMs
					p.rec.Span("adapt", wi, start, p.tbl.adaptPerStepMs,
						fmt.Sprintf("stream=%d window=%d", p.rec.StreamID(si), len(p.window[si])))
				}
				steps++
				share := p.tbl.adaptPerStepMs / float64(len(p.window[si]))
				for _, wf := range p.window[si] {
					wf.latencyMs += share
					wf.energyMJ += watts * share
					wf.shared = true
				}
			}
			p.sinceAdapt[si] = 0
			p.window[si] = p.window[si][:0]
		}
		busy := p.tbl.batchEst[n].BatchMs + float64(steps)*p.tbl.adaptPerStepMs
		p.bm.Served.Add(int64(n))
		p.bm.AdaptSteps.Add(int64(steps))
		if p.rec != nil {
			prec := "fp32"
			if p.ctrl.Quantized {
				prec = "int8"
			}
			p.rec.Span("batch", wi, dispatch, busy,
				fmt.Sprintf("n=%d steps=%d watts=%d prec=%s", n, steps, p.ctrl.Mode.Watts, prec))
			for i := range batch {
				f := &batch[i]
				act := "none"
				switch f.action {
				case adaptStep:
					act = "step"
				case adaptSkip:
					act = "skip"
				}
				// Begin backdated to arrival, End at forward completion —
				// the pair is emitted together once the outcome is known,
				// so no trace ever holds a dangling open.
				p.rec.Frame(f.stream, f.frame.Index, dispatch-f.queueMs, dispatch+p.tbl.batchEst[n].PerFrameMs,
					fmt.Sprintf("queue_ms=%.3f fwd_ms=%.3f n=%d adapt=%s", f.queueMs, p.tbl.batchEst[n].PerFrameMs, n, act))
			}
		}
		p.workers[wi] = dispatch + busy
		if p.workers[wi] > p.sc.makespanMs {
			p.sc.makespanMs = p.workers[wi]
		}
		p.sc.busyMs += busy
		p.sc.busyEnergyMJ += watts * busy
		p.served += n
		p.sc.batches = append(p.sc.batches, plannedBatch{
			dispatchMs: dispatch, worker: wi, quantized: p.ctrl.Quantized, frames: batch})
		es.Served += n
		es.AdaptSteps += steps
		es.BusyMs += busy
		es.BusyEnergyMJ += watts * busy
		for i := range batch {
			f := &batch[i]
			// Frames still awaiting their step share are judged at
			// the steady-state floor — a pending share will only
			// push them later, never earlier.
			est := f.latencyMs
			if f.windowed && !f.shared {
				est += p.tbl.adaptPerStepMs / float64(p.ctrl.AdaptEvery)
			}
			if est <= cfg.DeadlineMs {
				es.hits++
			}
			es.queueSum += f.queueMs
			if f.queueMs > es.MaxQueueMs {
				es.MaxQueueMs = f.queueMs
			}
		}
	}
}
