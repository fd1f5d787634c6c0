package serve

import (
	"fmt"
	"math"
	"sync"
	"time"

	"ldbnadapt/internal/forecast"
	"ldbnadapt/internal/obs"
	"ldbnadapt/internal/stream"
)

// Session is the serving engine opened for external stepping: where
// RunGoverned drives the whole epoch loop internally, a Session hands
// the loop to a caller — a fleet coordinator (internal/shard) that
// steps many boards in lockstep, decides controls per board, and
// migrates streams between boards at epoch boundaries.
//
// The contract is epoch-synchronous: RunEpoch plans every dispatch up
// to the epoch boundary, executes them on the host worker pool, and
// waits for execution to drain before returning. That barrier is what
// makes the boundary a safe point for SetControls, Probe,
// DetachStream and AttachStream — no worker is reading stream state
// while the caller snapshots or rewires it. The barrier trades a
// little host wall-clock (workers idle while the next epoch is
// planned and the controller decides) for that simplicity; all
// virtual-clock accounting is unaffected, and a one-shot Run plans
// everything in a single epoch so the batching benchmarks lose
// nothing.
//
// Ownership: a Session is used by one goroutine at a time. It has no
// internal locking beyond the worker pool — the epoch-synchronous
// methods above must never run concurrently, and a call from another
// goroutine than the last caller's must be ordered after it by a
// happens-before edge. The fleet runtime (internal/shard) follows
// exactly that contract: each barrier phase runs a board's work in a
// goroutine of its own and joins it before the next phase, and
// between phases the coordinator calls the quiescent session (Done,
// Now, Controls, DetachStream, AttachStream, SetControls, Finish)
// directly.
type Session struct {
	e       *Engine
	p       *planner
	sources []*stream.Source
	states  []*streamState
	// fc is each stream's arrival-rate forecaster, observed once per
	// epoch with the stream's arrival count; a detached stream's
	// forecaster leaves with it in the Handoff so its history follows
	// it across boards.
	fc []forecast.Forecaster

	batches  chan plannedBatch
	inflight sync.WaitGroup // batches handed to workers, not yet executed
	workers  sync.WaitGroup

	epochs     []EpochStats
	epochIdx   int
	epochStart float64
	sent       int
	start      time.Time
	finished   bool
	rep        Report

	// rec receives the session's control-lane trace events (epoch
	// spans, forecast instants); nil when tracing is off. The planner
	// carries its own copy for the dispatch-level events.
	rec *obs.Recorder
}

// Observe attaches a trace recorder and serve-layer metrics to the
// session (both may be nil/zero for no-op). Call before the first
// RunEpoch; the same goroutine-confinement contract as the other
// session methods applies.
func (s *Session) Observe(rec *obs.Recorder, bm obs.BoardMetrics) {
	s.rec = rec
	s.p.rec = rec
	s.p.bm = bm
}

// NewSession opens the engine over a fleet without running it. An
// empty fleet is valid: a board may start idle and receive its first
// stream by AttachStream. Finish must be called to release the worker
// goroutines and obtain the report.
func (e *Engine) NewSession(sources []*stream.Source) *Session {
	s := &Session{
		e:       e,
		p:       e.newPlanner(sources),
		sources: append([]*stream.Source(nil), sources...),
		states:  make([]*streamState, len(sources)),
		batches: make(chan plannedBatch, e.cfg.Workers),
		start:   time.Now(),
	}
	for i := range s.states {
		s.states[i] = newStreamState(e.model)
	}
	s.fc = make([]forecast.Forecaster, len(sources))
	for i := range s.fc {
		s.fc[i] = e.cfg.Forecast()
	}
	s.p.setControls(Controls{Mode: e.cfg.Mode, Policy: e.cfg.Policy, AdaptEvery: e.cfg.AdaptEvery, Quantized: e.cfg.Quantized})
	for w := 0; w < e.cfg.Workers; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			wk := e.newWorker()
			for b := range s.batches {
				wk.serve(b, s.states)
				s.inflight.Done()
			}
		}()
	}
	return s
}

// Controls returns the session's current actuator state.
func (s *Session) Controls() Controls { return s.p.ctrl }

// SetControls actuates the controls for subsequent planning. Call only
// at an epoch boundary (between RunEpoch calls).
func (s *Session) SetControls(c Controls) { s.p.setControls(c) }

// Now is the session's epoch clock: the nominal end of the last epoch
// run (zero before the first).
func (s *Session) Now() float64 { return s.epochStart }

// Done reports whether the session is fully drained: no frame remains
// to plan and the board has been charged through its last worker's
// busy interval. AttachStream revives a done session.
func (s *Session) Done() bool {
	return !s.p.remaining() && s.epochStart >= s.p.sc.makespanMs
}

// Probe simulates the next spanMs of this board under candidate
// controls from its exact current state without committing — the
// what-if hook a Controller's Decide receives.
func (s *Session) Probe(c Controls, spanMs float64) EpochStats {
	return probe(s.p, c, s.epochStart, s.epochStart+spanMs, s.e.cfg.Workers)
}

// RunEpoch plans every dispatch in [Now(), endMs) under the current
// controls, executes the planned batches on the host workers, waits
// for them to drain, and returns the epoch's telemetry. Static energy
// is charged for the epoch span while the board has work; once a board
// drains, the remaining busy tail is charged epoch by epoch (capped at
// the epoch length) and a fully drained board charges nothing until
// new work attaches — idle boards in a fleet sleep rather than burn
// their rail draw forever. A sleeping board's zero-span epochs are
// returned but not recorded in the report trace (the epoch numbering
// keeps counting, so a gap in Report.Epochs reads as time asleep).
func (s *Session) RunEpoch(endMs float64) EpochStats {
	es := EpochStats{Epoch: s.epochIdx, StartMs: s.epochStart, EndMs: endMs, Controls: s.p.ctrl}
	s.epochIdx++
	s.p.runUntil(endMs, &es)
	for ; s.sent < len(s.p.sc.batches); s.sent++ {
		s.inflight.Add(1)
		s.batches <- s.p.sc.batches[s.sent]
	}
	// Epoch barrier: migrations and state snapshots at the boundary need
	// every executed adaptation step already captured into stream state.
	s.inflight.Wait()
	span := endMs - s.epochStart
	if !s.p.remaining() {
		span = math.Min(span, math.Max(0, s.p.sc.makespanMs-s.epochStart))
	}
	finalizeEpoch(&es, s.p, span, s.e.cfg.Workers)
	// Observe the epoch into the per-stream forecasters and publish
	// their next-epoch predictions — the leading load signal a
	// predictive controller or fleet coordinator acts on at this
	// boundary. Probes never reach here, so what-if epochs leave the
	// forecast state untouched.
	es.StreamForecasts = make([]float64, len(s.fc))
	for si, f := range s.fc {
		f.Observe(float64(es.StreamArrivals[si]))
		es.StreamForecasts[si] = f.Forecast()
		es.ForecastArrived += es.StreamForecasts[si]
	}
	es.EndMs = s.epochStart + span
	if span > 0 {
		s.epochs = append(s.epochs, es)
		if s.rec != nil {
			s.rec.Span("epoch", -1, es.StartMs, span,
				fmt.Sprintf("epoch=%d mode=%s policy=%s adapt=%d arrived=%d served=%d dropped=%d queue=%d hit=%.3f util=%.3f",
					es.Epoch, es.Controls.Mode.Name, es.Controls.Policy, es.Controls.AdaptEvery,
					es.Arrived, es.Served, es.FramesDropped, es.QueueDepth, es.DeadlineHitRate, es.Utilization))
			s.rec.Instant("forecast", es.EndMs, fmt.Sprintf("epoch=%d next=%.2f", es.Epoch, es.ForecastArrived))
		}
	}
	s.epochStart = endMs
	return es
}

// Finish releases the worker pool and builds the session report. It is
// idempotent; the first call closes the pipeline.
func (s *Session) Finish() Report {
	if s.finished {
		return s.rep
	}
	s.finished = true
	close(s.batches)
	s.workers.Wait()
	s.rep = s.e.buildReport(s.p, s.states, s.epochs, time.Since(s.start))
	return s.rep
}

// Handoff is a stream in flight between boards: its future frames and
// a deep copy of its adaptation state. Migration is a leave+rejoin
// with state — the checkpoint a returning stream resumes from.
type Handoff struct {
	// Source carries the stream's frames from the detach boundary on,
	// with their original arrival stamps and indices.
	Source *stream.Source
	// Quantized records the numeric path (Controls.Quantized) in force
	// on the source board at the boundary: whether the stream was being
	// served on the int8 rung. Quantization is a board-level control,
	// so the destination is not forced onto the rung — the flag is the
	// placement signal a coordinator reads when deciding where a
	// latency-sensitive stream should land.
	Quantized bool
	// state is the stream's BN statistics and γ/β, optimizer moments,
	// warmup counter and pending adaptation-window samples, snapshotted
	// at the boundary.
	state *streamState
	// sinceAdapt is the planner's open-window length at the boundary, so
	// the destination continues the adaptation cadence mid-window.
	sinceAdapt int
	// fc is the stream's arrival-rate forecaster: its observation
	// history moves with the stream, so the destination board's
	// telemetry predicts the migrant's load from the first boundary.
	fc forecast.Forecaster
	// from and local identify the planner and local id the stream
	// detached from. A re-attach to the same planner (a same-board
	// rejoin, e.g. a consolidation move that found no better board) can
	// then resume the stream's actual open adaptation window — the
	// planned frames awaiting their step share are on that planner —
	// so the round trip is exactly invariant, not just approximately.
	from  *planner
	local int
}

// DetachStream removes stream id's future frames (arrivals at or after
// the last epoch boundary) from this board and returns them with a
// snapshot of the stream's adaptation state. Frames already queued at
// the boundary stay and drain here under the pre-migration state — the
// in-flight work of a real handoff. Returns nil when the stream has no
// future frames (nothing to migrate). Call only at an epoch boundary.
func (s *Session) DetachStream(id int) *Handoff {
	p := s.p
	future := 0
	for _, a := range p.all[p.arrSeen:] {
		if a.stream == id {
			future++
		}
	}
	if future == 0 {
		return nil
	}
	frames := make([]stream.Frame, 0, future)
	kept := p.all[:p.arrSeen:p.arrSeen]
	for _, a := range p.all[p.arrSeen:] {
		if a.stream == id {
			frames = append(frames, a.frame)
			continue
		}
		kept = append(kept, a)
	}
	p.all = kept
	h := &Handoff{
		Source:     &stream.Source{FPS: s.sources[id].FPS, Frames: frames},
		Quantized:  p.ctrl.Quantized,
		state:      s.states[id].snapshot(),
		sinceAdapt: p.sinceAdapt[id],
		fc:         s.fc[id],
		from:       p,
		local:      id,
	}
	// The local id stays valid (its served history remains here); give
	// it a fresh forecaster so the emigrated stream's history is owned
	// by exactly one board.
	s.fc[id] = s.e.cfg.Forecast()
	return h
}

// AttachStream adds a migrated (or newly joining) stream to this board
// and returns its board-local stream id. The handoff's state snapshot
// becomes the stream's live state, so adaptation resumes exactly where
// the source board left it. Call only at an epoch boundary; the
// handoff's frames must not predate it.
func (s *Session) AttachStream(h *Handoff) int {
	s.sources = append(s.sources, h.Source)
	s.states = append(s.states, h.state)
	fc := h.fc
	if fc == nil { // a newly joining stream arrives without history
		fc = s.e.cfg.Forecast()
	}
	s.fc = append(s.fc, fc)
	nl := s.p.addStream(h.Source, h.sinceAdapt)
	if h.from == s.p {
		// Same-board rejoin: splice the stream's open adaptation window
		// from its old local id, so the next completed step spreads its
		// share over the very frames that opened the window. Cross-board
		// attaches cannot do this — the awaiting frames live on the
		// source planner and keep their floor latency there, like any
		// in-flight work a real handoff leaves behind.
		s.p.window[nl] = s.p.window[h.local]
		s.p.window[h.local] = nil
		s.p.sinceAdapt[h.local] = 0
	}
	return nl
}
