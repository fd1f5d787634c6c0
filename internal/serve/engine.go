package serve

import (
	"fmt"
	"runtime"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/forecast"
	"ldbnadapt/internal/metrics"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// Config parameterizes the serving engine.
type Config struct {
	// Variant names the deployed full-scale backbone for Orin pricing.
	Variant resnet.Variant
	// Workers is the number of model replicas serving batches
	// (default GOMAXPROCS). The same count drives both the virtual
	// workers of the event-time scheduler and the host goroutines that
	// execute the planned batches. Replicas share all conv/FC weight
	// tensors.
	Workers int
	// MaxBatch caps how many frames one batched forward coalesces
	// (default 8).
	MaxBatch int
	// Window is the batching grace on the virtual clock: once the
	// oldest queued frame opens a batch, dispatch waits at most this
	// long for the batch to fill (default 2 ms).
	Window time.Duration
	// AdaptEvery runs one LD-BN-ADAPT step per stream every AdaptEvery
	// frames — the paper's batch-size amortization. The step is priced
	// per dispatch (orin.EstimateAdaptStep) and its cost is shared by
	// the frames of the window that triggered it. 0 disables adaptation
	// entirely. A Controller may re-actuate the cadence per epoch.
	AdaptEvery int
	// AdaptBatch is how many of the window's most recent frames feed
	// the adaptation step (default 1, capped at AdaptEvery).
	AdaptBatch int
	// Adapt carries the LD-BN-ADAPT hyperparameters.
	Adapt adapt.Config
	// Mode is the Orin power mode used for pricing (default 60 W). A
	// Controller may re-actuate the mode per epoch.
	Mode orin.PowerMode
	// DeadlineMs is the per-frame budget (default the 30 FPS budget).
	DeadlineMs float64
	// Quantized starts the engine on the int8 inference rung: batched
	// forwards run through nn.InferInt8 and price by the mode's int8
	// table. A Controller may re-actuate quantization per epoch.
	Quantized bool
	// Policy selects what the scheduler sheds when a stream falls
	// behind its camera (default stream.DropNone: nothing — the queue
	// grows without bound under overload). A Controller may re-actuate
	// the policy per epoch.
	Policy stream.OverloadPolicy
	// Backlog is the per-stream backlog cap in camera periods: a frame
	// queued longer than Backlog periods marks its stream as behind,
	// which is when SkipAdapt sheds adaptation steps and DropFrames
	// sheds the stale frames themselves (default 1).
	Backlog int
	// Forecast builds the per-stream arrival-rate forecaster a Session
	// feeds with each epoch's arrival count (default forecast.Default:
	// Holt linear trend). The resulting next-epoch forecasts ride in
	// EpochStats for predictive controllers and the fleet coordinator;
	// a migrating stream's forecaster travels with it in the Handoff.
	Forecast forecast.Factory
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Variant == 0 {
		c.Variant = resnet.R18
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.AdaptBatch <= 0 {
		c.AdaptBatch = 1
	}
	if c.AdaptEvery > 0 && c.AdaptBatch > c.AdaptEvery {
		c.AdaptBatch = c.AdaptEvery
	}
	if c.Mode.Name == "" {
		c.Mode = orin.Mode60W
	}
	if c.DeadlineMs <= 0 {
		c.DeadlineMs = orin.Deadline30FPS
	}
	if c.Backlog <= 0 {
		c.Backlog = 1
	}
	if c.Forecast == nil {
		c.Forecast = forecast.Default
	}
	return c
}

// StreamReport aggregates one stream's serving outcomes.
type StreamReport struct {
	// Stream is the stream id.
	Stream int
	// Frames is the number of frames served (dropped frames excluded).
	Frames int
	// OnlineAccuracy is the point-weighted accuracy over the stream.
	OnlineAccuracy float64
	// MeanLatencyMs, P50LatencyMs, P99LatencyMs, MaxLatencyMs
	// summarize the priced latency distribution.
	MeanLatencyMs, P50LatencyMs, P99LatencyMs, MaxLatencyMs float64
	// MeanQueueMs and MaxQueueMs summarize the measured queue waits.
	MeanQueueMs, MaxQueueMs float64
	// MaxQueueDepth is the deepest backlog (frames arrived but not yet
	// served) the stream reached on the virtual clock.
	MaxQueueDepth int
	// MissRate is the fraction of served frames over deadline.
	MissRate float64
	// AdaptSteps counts the stream's executed adaptation steps.
	AdaptSteps int
	// FramesDropped counts frames shed by the DropFrames policy.
	FramesDropped int
	// AdaptsSkipped counts due adaptation steps shed by SkipAdapt.
	AdaptsSkipped int
	// EnergyMJ is the stream's dynamic energy in millijoules (the sum
	// of its frames' EnergyMJ shares).
	EnergyMJ float64
}

// Report aggregates a full engine run.
type Report struct {
	// Streams holds per-stream outcomes indexed by stream id.
	Streams []StreamReport
	// Frames is the total served frame count across streams.
	Frames int
	// Batches is the number of coalesced forward passes; MeanBatch is
	// Frames / Batches.
	Batches   int
	MeanBatch float64
	// WallSeconds is the host wall-clock duration of the run and
	// ThroughputFPS the resulting frames/s (host measurement, not Orin
	// pricing).
	WallSeconds   float64
	ThroughputFPS float64
	// VirtualSeconds is the Orin-clock makespan: when the last virtual
	// worker went idle.
	VirtualSeconds float64
	// OnlineAccuracy is the point-weighted accuracy over all streams.
	OnlineAccuracy float64
	// MissRate, P50LatencyMs, P99LatencyMs summarize priced latency
	// over all served frames.
	MissRate                   float64
	P50LatencyMs, P99LatencyMs float64
	// MeanQueueMs and P99QueueMs summarize measured queue waits over
	// all served frames; MaxQueueDepth is the deepest per-stream
	// backlog any stream reached.
	MeanQueueMs, P99QueueMs float64
	MaxQueueDepth           int
	// FramesDropped and AdaptsSkipped total the overload shedding.
	FramesDropped, AdaptsSkipped int
	// BusyEnergyMJ is the run's dynamic energy: Σ over dispatches of
	// Watts(mode at dispatch) × busy interval, in millijoules. It
	// equals the sum of the per-stream EnergyMJ attributions.
	BusyEnergyMJ float64
	// IdleEnergyMJ is the static rail draw: IdleWatts of whatever mode
	// the board was parked at, integrated over the run (per control
	// epoch under a governor, over the makespan otherwise).
	IdleEnergyMJ float64
	// EnergyMJ = BusyEnergyMJ + IdleEnergyMJ, the total energy the
	// deployment drew.
	EnergyMJ float64
	// JPerFrame is the total energy per served frame in joules.
	JPerFrame float64
	// Epochs is the per-control-epoch telemetry trace (one entry for a
	// one-shot Run).
	Epochs []EpochStats
}

// modeTable is the Orin pricing of the engine's batching geometry
// under one power mode and numeric path (float32 or int8 forwards).
type modeTable struct {
	batchEst       []orin.BatchEstimate // index 1..MaxBatch
	adaptPerStepMs float64
}

// tableKey addresses a pricing table: power mode wattage × whether the
// batched forward runs the int8 path. Adaptation steps stay float32 in
// both variants.
type tableKey struct {
	watts int
	quant bool
}

// Engine serves a fleet of camera streams with one shared-weight model.
type Engine struct {
	cfg   Config
	model *ufld.Model

	windowMs float64
	// tables prices every orin.Modes entry (plus the configured mode)
	// in both numeric paths, so per-epoch mode/quantization actuation
	// is a table lookup; def is the configured mode's table.
	tables map[tableKey]*modeTable
	def    *modeTable
}

// New builds an engine around a deployed model. The repro-scale model
// runs functionally while latency is priced on the full-scale
// architecture of cfg.Variant — the board the paper deploys.
func New(m *ufld.Model, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	cost := ufld.DescribeModel(ufld.FullScale(cfg.Variant, m.Cfg.Lanes))
	e := &Engine{
		cfg:      cfg,
		model:    m,
		windowMs: float64(cfg.Window) / float64(time.Millisecond),
		tables:   make(map[tableKey]*modeTable, 2*(len(orin.Modes)+1)),
	}
	name := cfg.Variant.String()
	build := func(mode orin.PowerMode, quant bool) *modeTable {
		t := &modeTable{
			batchEst:       make([]orin.BatchEstimate, cfg.MaxBatch+1),
			adaptPerStepMs: orin.EstimateAdaptStep(cost, mode),
		}
		for k := 1; k <= cfg.MaxBatch; k++ {
			if quant {
				t.batchEst[k] = orin.EstimateInferenceBatchInt8(name, cost, mode, k)
			} else {
				t.batchEst[k] = orin.EstimateInferenceBatch(name, cost, mode, k)
			}
		}
		return t
	}
	for _, quant := range []bool{false, true} {
		for _, mode := range orin.Modes {
			e.tables[tableKey{mode.Watts, quant}] = build(mode, quant)
		}
		// Built last so a custom configured mode that shares a wattage
		// with a stock orin.Modes entry prices itself, not the stock
		// point.
		e.tables[tableKey{cfg.Mode.Watts, quant}] = build(cfg.Mode, quant)
	}
	e.def = e.tables[tableKey{cfg.Mode.Watts, cfg.Quantized}]
	return e
}

// Config returns the engine configuration after defaulting.
func (e *Engine) Config() Config { return e.cfg }

// tableFor resolves the pricing table for a power mode and numeric
// path.
func (e *Engine) tableFor(mode orin.PowerMode, quant bool) *modeTable {
	t, ok := e.tables[tableKey{mode.Watts, quant}]
	if !ok {
		panic(fmt.Sprintf("serve: no pricing table for mode %q — controllers must choose from orin.Modes", mode.Name))
	}
	return t
}

// FrameLatencyMs prices the steady-state cost of one frame served in a
// coalesced batch of the given size with zero queue wait under the
// configured mode: the frame's amortized share of the batched forward
// plus (when adaptation is enabled) the amortized share of its
// stream's adaptation step. Actual served frames add their measured
// queue wait on top of this floor.
func (e *Engine) FrameLatencyMs(batchSize int) float64 {
	if batchSize < 1 || batchSize > e.cfg.MaxBatch {
		panic(fmt.Sprintf("serve: batch size %d outside [1,%d]", batchSize, e.cfg.MaxBatch))
	}
	lat := e.def.batchEst[batchSize].PerFrameMs
	if e.cfg.AdaptEvery > 0 {
		lat += e.def.adaptPerStepMs / float64(e.cfg.AdaptEvery)
	}
	return lat
}

// buildReport aggregates the executed plan, its shed/energy accounting
// and the epoch trace into the run report. Frames are walked in plan
// order, never in the order workers finished them, so every sum is the
// same at any host scheduling. Latency and energy are read off the plan
// only now, because a later epoch may still assign a frame its
// adaptation-step share retroactively.
func (e *Engine) buildReport(p *planner, states []*streamState, epochs []EpochStats, wall time.Duration) Report {
	nStreams := len(states)
	type agg struct {
		frames, points int
		accW, latSum   float64
		energy         float64
		misses         int
		lats, queues   []float64
	}
	aggs := make([]agg, nStreams)
	for _, pb := range p.sc.batches {
		for i := range pb.frames {
			pf := &pb.frames[i]
			a := &aggs[pf.stream]
			a.frames++
			a.accW += pf.acc * float64(pf.pts)
			a.points += pf.pts
			a.latSum += pf.latencyMs
			a.energy += pf.energyMJ
			a.lats = append(a.lats, pf.latencyMs)
			a.queues = append(a.queues, pf.queueMs)
			if pf.latencyMs > e.cfg.DeadlineMs {
				a.misses++
			}
		}
	}

	rep := Report{
		Streams:        make([]StreamReport, nStreams),
		WallSeconds:    wall.Seconds(),
		VirtualSeconds: p.sc.makespanMs / 1e3,
		Epochs:         epochs,
	}
	var allLats, allQueues []float64
	totalPoints, totalAccW, totalMisses := 0, 0.0, 0
	for si := range aggs {
		a := &aggs[si]
		ss := p.sc.streams[si]
		sr := StreamReport{
			Stream: si, Frames: a.frames, AdaptSteps: states[si].steps - states[si].baseSteps,
			MaxQueueDepth: ss.maxDepth, FramesDropped: ss.dropped, AdaptsSkipped: ss.skipped,
			EnergyMJ: a.energy,
		}
		if a.points > 0 {
			sr.OnlineAccuracy = a.accW / float64(a.points)
		}
		if a.frames > 0 {
			sr.MeanLatencyMs = a.latSum / float64(a.frames)
			sr.MissRate = float64(a.misses) / float64(a.frames)
		}
		// Guard the percentiles on the sample slices themselves, not the
		// frame counter: a stream can end a run with zero latency samples
		// (fully shed under DropFrames, or detached before serving) and
		// metrics.Percentile panics on empty input.
		if len(a.lats) > 0 {
			sr.P50LatencyMs = metrics.Percentile(a.lats, 50)
			sr.P99LatencyMs = metrics.Percentile(a.lats, 99)
			sr.MaxLatencyMs = metrics.Percentile(a.lats, 100)
		}
		if len(a.queues) > 0 {
			sr.MeanQueueMs = metrics.Mean(a.queues)
			sr.MaxQueueMs = metrics.Percentile(a.queues, 100)
		}
		rep.Streams[si] = sr
		rep.Frames += a.frames
		rep.FramesDropped += ss.dropped
		rep.AdaptsSkipped += ss.skipped
		if ss.maxDepth > rep.MaxQueueDepth {
			rep.MaxQueueDepth = ss.maxDepth
		}
		totalPoints += a.points
		totalAccW += a.accW
		totalMisses += a.misses
		allLats = append(allLats, a.lats...)
		allQueues = append(allQueues, a.queues...)
	}
	rep.Batches = len(p.sc.batches)
	if rep.Batches > 0 {
		rep.MeanBatch = float64(rep.Frames) / float64(rep.Batches)
	}
	if totalPoints > 0 {
		rep.OnlineAccuracy = totalAccW / float64(totalPoints)
	}
	if rep.Frames > 0 {
		rep.MissRate = float64(totalMisses) / float64(rep.Frames)
	}
	if len(allLats) > 0 {
		rep.P50LatencyMs = metrics.Percentile(allLats, 50)
		rep.P99LatencyMs = metrics.Percentile(allLats, 99)
	}
	if len(allQueues) > 0 {
		rep.MeanQueueMs = metrics.Mean(allQueues)
		rep.P99QueueMs = metrics.Percentile(allQueues, 99)
	}
	rep.BusyEnergyMJ = p.sc.busyEnergyMJ
	for _, es := range epochs {
		rep.IdleEnergyMJ += es.IdleEnergyMJ
	}
	rep.EnergyMJ = rep.BusyEnergyMJ + rep.IdleEnergyMJ
	if rep.Frames > 0 {
		rep.JPerFrame = rep.EnergyMJ / 1e3 / float64(rep.Frames)
	}
	if rep.WallSeconds > 0 {
		rep.ThroughputFPS = float64(rep.Frames) / rep.WallSeconds
	}
	return rep
}

// worker is one serving replica with its reusable batch buffers.
type worker struct {
	e     *Engine
	model *ufld.Model
	bns   []*nn.BatchNorm2D
	// step is the LD-BN-ADAPT step on this replica's γ/β; building it
	// freezes the replica's (shared, read-only) conv and FC weights.
	step    *adapt.Step
	decoder ufld.Decoder

	inBuf    []float32        // [MaxBatch, 3, H, W] assembly buffer
	adaptBuf []float32        // [AdaptBatch, 3, H, W] adaptation buffer
	slabs    [][]float32      // per batch slot: its stream's BN slab
	srcPtrs  [][]*nn.BNSource // per BN layer: per-slot views into slabs

	// inView and adaptView are cached headers over the assembly
	// buffers, so the steady-state serve loop builds its batch tensors
	// without per-dispatch allocation.
	inView, adaptView nn.View
}

// newWorker builds a worker around a fresh shared-weight replica.
func (e *Engine) newWorker() *worker {
	m := e.model.Replica()
	wk := &worker{e: e, model: m, bns: m.BatchNorms(), step: adapt.NewStep(m, m.BNParams(), e.cfg.Adapt)}
	chw := 3 * m.Cfg.InputH * m.Cfg.InputW
	wk.inBuf = make([]float32, e.cfg.MaxBatch*chw)
	wk.adaptBuf = make([]float32, e.cfg.AdaptBatch*chw)
	wk.slabs = make([][]float32, e.cfg.MaxBatch)
	wk.srcPtrs = make([][]*nn.BNSource, len(wk.bns))
	for j := range wk.srcPtrs {
		wk.srcPtrs[j] = make([]*nn.BNSource, e.cfg.MaxBatch)
	}
	for i := range wk.slabs {
		var views []nn.BNSource
		wk.slabs[i], views = newBNSlab(wk.bns)
		for j := range views {
			wk.srcPtrs[j][i] = &views[j]
		}
	}
	return wk
}

// serve executes one planned batch: per-stream-conditioned batched
// inference and scoring, then the adaptation steps the scheduler
// decided. Queue waits, deadline and energy accounting were fixed at
// planning time (with step shares possibly still landing from later
// epochs, which is why only the planner's final state is reported);
// this stage writes the functional results into the batch's planned
// frames, ordered before buildReport reads them by the epoch barrier.
func (wk *worker) serve(pb plannedBatch, states []*streamState) {
	mcfg := wk.model.Cfg
	chw := 3 * mcfg.InputH * mcfg.InputW
	batch := pb.frames
	n := len(batch)

	// Assemble the input batch and copy each frame's stream BN state
	// into the worker arena (briefly locking one stream at a time, so
	// a concurrent adaptation step on another worker cannot tear it).
	for i := range batch {
		pf := &batch[i]
		img := pf.frame.Sample.Image
		if img.Size() != chw {
			panic(fmt.Sprintf("serve: stream %d frame %d image %v, want [3,%d,%d]",
				pf.stream, pf.frame.Index, img.Shape(), mcfg.InputH, mcfg.InputW))
		}
		copy(wk.inBuf[i*chw:(i+1)*chw], img.Data)
		st := states[pf.stream]
		st.mu.Lock()
		copy(wk.slabs[i], st.slab)
		st.mu.Unlock()
	}

	// Batched inference with per-sample BN conditioning, on the numeric
	// path the scheduler planned the batch for.
	x := wk.inView.Of(wk.inBuf[:n*chw], n, 3, mcfg.InputH, mcfg.InputW)
	for j, b := range wk.bns {
		b.SetSampleSources(wk.srcPtrs[j][:n])
	}
	var logits *tensor.Tensor
	if pb.quantized {
		logits = wk.model.ForwardInferInt8(x)
	} else {
		logits = wk.model.ForwardInfer(x)
	}
	preds := wk.decoder.Decode(mcfg, logits, n)
	for _, b := range wk.bns {
		b.SetSampleSources(nil)
	}

	for i := range batch {
		pf := &batch[i]
		pf.acc, pf.pts = stream.ScoreSample(mcfg, preds[i], pf.frame.Sample)
	}

	// Adaptation stage: windowed frames join their stream's window; the
	// scheduler has already decided which frames complete a window and
	// whether the due step runs or was shed under pressure.
	for i := range batch {
		pf := &batch[i]
		if !pf.windowed {
			continue
		}
		st := states[pf.stream]
		st.mu.Lock()
		st.pending = append(st.pending, pf.frame.Sample)
		switch pf.action {
		case adaptStep:
			wk.adaptLocked(st)
			st.pending = st.pending[:0]
		case adaptSkip:
			st.pending = st.pending[:0]
		}
		st.mu.Unlock()
	}
}

// adaptLocked runs one LD-BN-ADAPT step for a stream on this worker's
// replica (caller holds st.mu): swap the stream's BN state in, run
// adapt.Step — the same step adapt.LDBNAdapt runs, here advancing the
// stream's own optimizer state and step count — on the window's
// most recent AdaptBatch frames, and capture the refreshed statistics
// and updated γ/β back out.
func (wk *worker) adaptLocked(st *streamState) {
	mcfg := wk.model.Cfg
	chw := 3 * mcfg.InputH * mcfg.InputW
	nb := wk.e.cfg.AdaptBatch
	if nb > len(st.pending) {
		nb = len(st.pending)
	}
	tail := st.pending[len(st.pending)-nb:]
	for i, s := range tail {
		copy(wk.adaptBuf[i*chw:(i+1)*chw], s.Image.Data)
	}
	xa := wk.adaptView.Of(wk.adaptBuf[:nb*chw], nb, 3, mcfg.InputH, mcfg.InputW)

	st.swapInto(wk.bns)
	wk.step.Run(xa, nn.Adapt, &st.opt, st.steps)
	st.steps++
	st.captureFrom(wk.bns)
}
