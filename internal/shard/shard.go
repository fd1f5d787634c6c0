package shard

import (
	"fmt"
	"time"

	"ldbnadapt/internal/govern"
	"ldbnadapt/internal/obs"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/ufld"
)

// Config parameterizes the fleet coordinator.
type Config struct {
	// Boards is the number of boards in the fleet (default 1).
	Boards int
	// Board configures every board's serve engine; Workers is the
	// per-board replica count.
	Board serve.Config
	// Placement picks the initial stream→board assignment (default
	// LeastLoaded).
	Placement Placement
	// Governor names each board's controller — static, hysteresis or
	// oracle (internal/govern); each board gets its own instance riding
	// its own ladder. Empty pins every board at Board.Mode with no
	// controller, like serve.Run.
	Governor string
	// BudgetW caps every board's power ladder in watts (0 =
	// unconstrained).
	BudgetW int
	// EpochMs is the control-epoch length shared by all boards (default
	// 250): boards plan, execute and report in lockstep, and the
	// coordinator migrates at the shared boundaries.
	EpochMs float64
	// Migrate enables saturation-driven migration: when a board's epoch
	// ran at its top affordable rung and still missed the service
	// target, the coordinator moves its hottest stream (highest
	// forecast arrivals for the next epoch) to the coolest board with
	// headroom.
	Migrate bool
	// Consolidate enables the reverse path — lull consolidation: when
	// the fleet's forecast load fits on fewer boards with headroom, the
	// coordinator drains the coldest occupied board, migrating its
	// streams (coldest-first) onto the boards with the most forecast
	// headroom. A drained board sleeps and charges no rail draw until
	// saturation migration reopens it.
	Consolidate bool
	// ConsolidateUtil is the forecast-utilization ceiling a board may
	// be packed to during consolidation (default 0.5, fraction of its
	// worker capacity): low enough that a consolidated board rides a
	// mild burst without immediately saturating.
	ConsolidateUtil float64
	// GroupSize partitions boards into placement groups of this size
	// (default 16). Saturation migration, lull consolidation and
	// failover re-admission score O(group) inside each group's placer;
	// a top-level fleet placer rebalances streams across groups on
	// aggregated forecast load. Fleets of at most GroupSize boards form
	// a single group and reproduce the flat coordinator's decisions
	// exactly.
	GroupSize int
	// Admission gates streams that come online after the run starts
	// (first frame beyond the first epoch boundary): instead of being
	// placed up front, they wait for a board with forecast headroom,
	// queuing or shedding per the policy. Nil keeps the legacy
	// contract — every stream placed unconditionally at start.
	Admission *Admission
	// Lockstep steps the boards serially through their actors — one
	// function outstanding in the whole fleet at a time — instead of
	// concurrently. It is the reference execution the concurrent
	// runtime is pinned against (TestConcurrentMatchesLockstep), not a
	// production mode.
	Lockstep bool
	// CheckpointEvery writes every homed stream's adaptation state into
	// Checkpoints every N fleet epochs (0 disables checkpointing;
	// defaults to 1 when a failure Plan is set). The cadence bounds the
	// BN-state staleness a recovered stream resumes with.
	CheckpointEvery int
	// Checkpoints is the durable store failover recovery reads stream
	// state back from (default: a fresh in-memory store whenever
	// checkpointing is enabled).
	Checkpoints serve.CheckpointStore
	// Plan injects membership events — board kills, graceful drains and
	// cold joins — at epoch boundaries: the seeded chaos hook.
	Plan *FailurePlan
	// Trace collects the run's deterministic event-time trace
	// (internal/obs): frame lifecycles and batch/adapt/epoch spans per
	// board, plus the coordinator's control-plane instants (epochs,
	// migrations, kills/drains/joins, admissions, checkpoints). Nil
	// disables tracing; the hot path then pays pointer tests only.
	// The merged trace is identical in Lockstep and concurrent mode.
	Trace *obs.Trace
	// Metrics is the fleet metrics registry (internal/obs): shared
	// serve-layer counters/histograms plus fleet counters and per-board
	// forecast-utilization gauges. Nil disables metrics.
	Metrics *obs.Registry
}

// The coordinator's placement thresholds. Saturation is judged against
// govern.TargetHitRate, the service target the governors hold.
const (
	// maxUtil is the destination headroom gate: a stream migrates only
	// onto a board whose forecast utilization is below it, and it is
	// the default admission ceiling.
	maxUtil = 0.5
	// cooldown is how many epochs a migrated stream stays put before it
	// may move again: a board draining the backlog that made it
	// saturated reads as still-saturated for a few epochs, and without
	// inertia the same stream ping-pongs between boards.
	cooldown = 8
	// rebalanceGap is the minimum spread between the hottest and
	// coolest group's mean forecast utilization before the fleet placer
	// moves a stream across groups.
	rebalanceGap = 0.25
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Boards <= 0 {
		c.Boards = 1
	}
	if c.EpochMs <= 0 {
		c.EpochMs = 250
	}
	if c.ConsolidateUtil <= 0 {
		c.ConsolidateUtil = 0.5
	}
	if c.Placement == nil {
		c.Placement = LeastLoaded{}
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 16
	}
	if c.Admission != nil {
		// Copy before defaulting so the caller's struct stays untouched.
		a := *c.Admission
		if a.MaxUtil <= 0 {
			a.MaxUtil = maxUtil
		}
		c.Admission = &a
	}
	if c.Plan != nil && len(c.Plan.Events) > 0 && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.CheckpointEvery > 0 && c.Checkpoints == nil {
		c.Checkpoints = serve.NewMemCheckpoints()
	}
	return c
}

// Migration reasons.
const (
	// Saturate marks a move off a board pinned at its top rung while
	// missing the service target.
	Saturate = "saturate"
	// Consolidate marks a lull-consolidation move onto a board with
	// forecast headroom, part of draining the source board.
	Consolidate = "consolidate"
	// Failover marks a re-admission of a dead board's stream onto a
	// survivor, resumed from its last durable checkpoint (or cold when
	// none was readable).
	Failover = "failover"
	// Evacuate marks a move off a board gracefully leaving the fleet (a
	// Drain event): all state travels live, nothing is lost.
	Evacuate = "evacuate"
	// Rebalance marks a cross-group move by the top-level fleet placer:
	// the hottest group's mean forecast load cleared the saturation
	// ceiling while another group sat cold, a spread no per-group
	// placer can see.
	Rebalance = "rebalance"
)

// Migration records one stream move.
type Migration struct {
	// Epoch is the control epoch whose boundary triggered the move.
	Epoch int
	// Stream is the fleet-wide stream id.
	Stream int
	// From and To are board ids.
	From, To int
	// Reason is Saturate, Consolidate, Failover, Evacuate or Rebalance.
	Reason string
	// Drained marks the final move of a consolidation or evacuation
	// that emptied the source board: every stream it still homed either
	// moved or had no future frames, so the board sleeps once its
	// in-flight work drains.
	Drained bool
}

// BoardReport is one board's outcome within the fleet.
type BoardReport struct {
	// Board is the board id; Group is the placement group it belonged
	// to.
	Board, Group int
	// Report is the board's full serve report; its Streams are indexed
	// by board-local id.
	Report serve.Report
	// Globals maps the board's local stream ids to fleet-wide stream
	// ids, in local order (streams that migrated in appear once more
	// here with a fresh local id).
	Globals []int
	// MigratedIn and MigratedOut count stream moves at this board.
	MigratedIn, MigratedOut int
	// JoinEpoch is the fleet epoch this board incarnation joined at (0
	// for founding boards). LeaveEpoch is the epoch it was killed or
	// retired after draining, -1 if it was still in the fleet at run
	// end. A rejoin after failure is a new incarnation with a new id,
	// so every id names exactly one lifetime.
	JoinEpoch, LeaveEpoch int
}

// StreamSummary aggregates one fleet-wide stream across every board
// that served part of it.
type StreamSummary struct {
	// Stream is the fleet-wide stream id.
	Stream int
	// Frames is the stream's total served frames across boards.
	Frames int
	// MissRate is the deadline-miss fraction over those frames.
	MissRate float64
	// EnergyMJ is the stream's dynamic energy across boards.
	EnergyMJ float64
	// AdaptSteps counts adaptation steps across boards.
	AdaptSteps int
	// Boards is how many boards served at least one of its frames.
	Boards int
}

// Report aggregates a fleet run.
type Report struct {
	// Boards holds per-board outcomes.
	Boards []BoardReport
	// Streams holds per-fleet-stream outcomes indexed by stream id.
	Streams []StreamSummary
	// Migrations lists every stream move in epoch order.
	Migrations []Migration
	// Events lists the membership events that fired (kills, drains,
	// joins) with their recovery outcomes, in epoch order.
	Events []EventRecord
	// LostFrames totals frames that had arrived at killed boards but
	// were neither served nor shed when the board died — the queue the
	// failure destroyed. (Frames not yet delivered at the kill re-home
	// with their stream and are not lost.)
	LostFrames int
	// Checkpoints counts successful stream-checkpoint writes;
	// CheckpointErrors counts failed writes, unreadable reads and
	// undecodable checkpoints (each of which forces a cold recovery).
	Checkpoints, CheckpointErrors int
	// Frames is the fleet's total served frame count.
	Frames int
	// HitRate is the fleet deadline-hit fraction over served frames.
	HitRate float64
	// FramesDropped and AdaptsSkipped total the fleet's shedding.
	FramesDropped, AdaptsSkipped int
	// BusyEnergyMJ, IdleEnergyMJ and EnergyMJ total the fleet's
	// dynamic, static and overall energy in millijoules.
	BusyEnergyMJ, IdleEnergyMJ, EnergyMJ float64
	// JPerFrame is fleet energy per served frame in joules.
	JPerFrame float64
	// VirtualSeconds is the fleet makespan: the latest board drain.
	VirtualSeconds float64
	// StrandedMs is idle worker-milliseconds while boards were powered
	// (Σ boards of Workers × on-time − busy time): capacity the
	// placement provisioned but load never used.
	StrandedMs float64
	// WallSeconds is the host wall-clock duration of the run.
	WallSeconds float64
	// FleetEpochs counts the control-epoch boundaries the fleet
	// stepped; FleetEpochs / WallSeconds is the fleet step rate the
	// scale benchmark tracks.
	FleetEpochs int
	// CoordSeconds is host wall-clock the coordinator spent in boundary
	// work — membership, placement, admission, checkpoint store writes
	// — while the board actors idled at the barrier. CoordSeconds /
	// WallSeconds is the coordinator-overhead share; board stepping and
	// the parallel governor/checkpoint-encode barriers are excluded.
	CoordSeconds float64
	// Admissions lists the admission gate's outcomes in epoch order
	// (empty without Config.Admission).
	Admissions []AdmissionRecord
	// AdmitDropped totals frames lost at the admission gate: frames
	// that passed while a stream waited for headroom, plus the full
	// schedules of streams the gate rejected.
	AdmitDropped int
}

// board is one governed engine plus its coordinator-side bookkeeping.
// Boards live in a registry (the run's append-only []*board): a
// board's id is its registry index, stable for its lifetime and never
// reused — a recovered board rejoins as a new incarnation with a new
// id. Liveness is a flag, not removal, so nothing ever re-indexes.
type board struct {
	id      int
	sess    *serve.Session
	ctl     serve.Controller
	act     *boardActor
	group   int         // placement group (see Config.GroupSize)
	globals []int       // local id → fleet stream id
	local   map[int]int // fleet stream id → current local id
	in, out int
	// satW is the watts of the rung this board counts as "pinned at
	// top": the ladder top for closed-loop governors, the pinned mode
	// for static deployments.
	satW int
	// stats is the board's last epoch telemetry, written by step on the
	// board's actor and read by the coordinator after the step barrier
	// — there is no dense-id fleet slice to index out of range when
	// membership changes mid-run.
	stats serve.EpochStats
	// alive is false once the board is killed or retired; leaving marks
	// a graceful drain in progress (evacuated, still draining its
	// queue, excluded from placement).
	alive, leaving bool
	// joinEpoch and leaveEpoch bound the incarnation's lifetime in
	// fleet epochs (leaveEpoch -1 while in the fleet).
	joinEpoch, leaveEpoch int
	// rec is the board's trace recorder (nil when tracing is off). It
	// is single-writer: after openBoard hands the session to the actor,
	// only the actor's goroutine emits into it, and the coordinator
	// reads it only after the actors stop.
	rec *obs.Recorder
	// futil publishes the board's forecast utilization each boundary
	// (nil when metrics are off).
	futil *obs.Gauge
	// ckpt is the board's share of a checkpoint pass, kept across
	// epochs so a steady pass allocates nothing: the homed streams'
	// local and fleet ids, and their encodings, which the coordinator
	// Puts before the next pass overwrites them. Each pass trims enc to
	// the streams the board homes, so it holds none for streams that
	// left.
	ckpt struct {
		locals, globals []int
		enc             [][]byte
	}
}

// Fleet coordinates N governed boards serving one stream fleet. It is
// immutable after New: everything one Run mutates lives on its runCtx,
// so Runs share nothing but the configuration and the model.
type Fleet struct {
	cfg    Config
	model  *ufld.Model
	topW   int
	topEff float64
	ladder []orin.PowerMode
}

// runCtx is one Run's mutable state: the pricing context, the board
// registry, the stream→board map and cooldown clocks, the
// fault-tolerance and admission bookkeeping, and the records the
// Report is built from. Only the coordinator touches it, at barriers.
type runCtx struct {
	f       *Fleet
	eng     *serve.Engine
	boards  []*board
	sources []*stream.Source

	// frameMs and workers are the pricing context: the zero-queue
	// per-frame cost at the configured mode, and the per-board worker
	// count — the currency placement seeds, migration headroom gates
	// and consolidation packing all share. refEff is the configured
	// mode's EffGFLOPS, the rung frameMs was priced at.
	frameMs, refEff float64
	workers         int
	// rec is the coordinator's trace recorder (control-plane instants;
	// nil when tracing is off), met the fleet-level instrument bundle,
	// and nowMs the current boundary's fleet clock.
	rec   *obs.Recorder
	met   fleetMetrics
	nowMs float64

	// home maps fleet stream id → current board (-1 while unplaced).
	// Two cooldown clocks: lastSat guards saturation migration against
	// ping-pong between hot boards; lastCon keeps consolidation from
	// re-packing a stream every boundary. They are separate so a stream
	// packed during a lull stays immediately rescuable when the lull
	// ends. peak is the per-stream decayed peak of observed epoch
	// arrivals — the consolidation insurance against square-wave bursts
	// no causal forecaster sees coming.
	home             []int
	lastSat, lastCon []int
	peak             []float64

	migrations []Migration
	events     []EventRecord
	store      serve.CheckpointStore
	ckpts      int
	ckptErrs   int
	epochs     int

	pendingKills  []pendingKill
	pendingDrains []*board

	// Admission-gate state (see admission.go): arrivals waiting for
	// forecast headroom, and the gate's outcome trace.
	pending      []pendingStream
	admissions   []AdmissionRecord
	admitDropped int
}

// fleetMetrics bundles the coordinator's instruments. The zero value
// (all-nil, from a nil registry) is fully no-op.
type fleetMetrics struct {
	migrations, lostFrames        *obs.Counter
	admitted, admitRejected       *obs.Counter
	admitDroppedFrames            *obs.Counter
	checkpoints, checkpointErrors *obs.Counter
	epochs, coordSeconds, wallSec *obs.Gauge
}

func newFleetMetrics(reg *obs.Registry) fleetMetrics {
	return fleetMetrics{
		migrations:         reg.Counter("fleet.migrations"),
		lostFrames:         reg.Counter("fleet.lost_frames"),
		admitted:           reg.Counter("fleet.admitted"),
		admitRejected:      reg.Counter("fleet.admit_rejected"),
		admitDroppedFrames: reg.Counter("fleet.admit_dropped_frames"),
		checkpoints:        reg.Counter("fleet.checkpoints"),
		checkpointErrors:   reg.Counter("fleet.checkpoint_errors"),
		epochs:             reg.Gauge("fleet.epochs"),
		coordSeconds:       reg.Gauge("fleet.coord_seconds"),
		wallSec:            reg.Gauge("fleet.wall_seconds"),
	}
}

// New validates the configuration and builds a coordinator. Boards are
// identical engines over the shared-weight model; per-board state
// (sessions, governors) is created per Run.
func New(m *ufld.Model, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Consolidate && !cfg.Migrate {
		// A drained board can only reopen through saturation migration;
		// consolidation without it would put rails to sleep with no way
		// to wake them when the load returns.
		return nil, fmt.Errorf("shard: Consolidate requires Migrate (drained boards reopen only by migration)")
	}
	ladder, err := govern.Ladder(cfg.BudgetW)
	if err != nil {
		return nil, err
	}
	if cfg.Governor != "" {
		if _, err := govern.ByName(cfg.Governor, cfg.BudgetW); err != nil {
			return nil, err
		}
	}
	top := ladder[len(ladder)-1]
	return &Fleet{cfg: cfg, model: m, topW: top.Watts, topEff: top.EffGFLOPS, ladder: ladder}, nil
}

// controller builds one board's private controller instance (nil
// when no governor is configured).
func (f *Fleet) controller() serve.Controller {
	if f.cfg.Governor == "" {
		return nil
	}
	ctl, err := govern.ByName(f.cfg.Governor, f.cfg.BudgetW)
	if err != nil {
		panic(err.Error()) // New validated
	}
	return ctl
}

// openBoard builds one board incarnation around a fresh session over
// the given streams, with its private controller started, and hands
// the session to a new long-lived board actor. The setup touches the
// session directly — the actor does not exist yet, so the coordinator
// still owns it.
func (f *Fleet) openBoard(eng *serve.Engine, id, joinEpoch int, mine []*stream.Source) *board {
	b := &board{
		id: id, ctl: f.controller(), local: make(map[int]int), satW: f.topW,
		alive: true, joinEpoch: joinEpoch, leaveEpoch: -1,
	}
	b.sess = eng.NewSession(mine)
	if b.ctl != nil {
		cur := b.ctl.Start(eng.Config())
		b.sess.SetControls(cur)
		if f.cfg.Governor == "static" {
			b.satW = cur.Mode.Watts
		}
	} else {
		b.satW = eng.Config().Mode.Watts
	}
	// Observability wiring must precede the actor handoff: the actor's
	// goroutine is the recorder's single writer once it owns the
	// session. The stream mapping closes over b.globals, which the
	// coordinator only mutates at barriers while the actor is
	// quiescent — the same happens-before contract the session has.
	b.rec = f.cfg.Trace.Recorder(id, func(li int) int {
		if li >= 0 && li < len(b.globals) {
			return b.globals[li]
		}
		return -1
	})
	b.sess.Observe(b.rec, obs.NewBoardMetrics(f.cfg.Metrics))
	b.futil = f.cfg.Metrics.Gauge(fmt.Sprintf("board%03d.forecast_util", id))
	b.act = newBoardActor()
	return b
}

// live filters the registry down to the boards currently in the fleet:
// alive incarnations, including leaving boards still draining.
func live(boards []*board) []*board {
	out := make([]*board, 0, len(boards))
	for _, b := range boards {
		if b.alive {
			out = append(out, b)
		}
	}
	return out
}

// Run places the fleet onto the boards and serves it to completion.
// Every board's session is owned by a long-lived actor goroutine; the
// coordinator drives them through shared control epochs with an
// explicit barrier protocol (see actor.go): step barrier, then
// board-local governor actuation, then the coordinator's boundary
// work — membership, failover, admission, the per-group placers and
// the top-level rebalancer — then the checkpoint pass. Every placement
// decision runs single-threaded at the boundary while the actors are
// quiescent, so the concurrent runtime reproduces the lockstep
// coordinator's Report bit for bit (Config.Lockstep is the pinned
// reference).
func (f *Fleet) Run(sources []*stream.Source) Report {
	cfg := f.cfg
	start := time.Now()

	// One engine serves every board: boards are identical hardware, the
	// engine is immutable after construction (pricing tables, config),
	// and per-board mutable state lives in each board's Session. Its
	// per-frame cost also prices the placement forecast.
	eng := serve.New(f.model, cfg.Board)
	r := &runCtx{
		f: f, eng: eng, sources: sources,
		// The coordinator's recorder must exist before any board's:
		// recorder creation order is the trace merge's tie-break order,
		// and fleet instants win equal-timestamp ties against board
		// events.
		rec:     cfg.Trace.Recorder(-1, nil),
		met:     newFleetMetrics(cfg.Metrics),
		frameMs: eng.FrameLatencyMs(1),
		refEff:  eng.Config().Mode.EffGFLOPS,
		workers: eng.Config().Workers,
		home:    make([]int, len(sources)),
		lastSat: make([]int, len(sources)),
		lastCon: make([]int, len(sources)),
		peak:    make([]float64, len(sources)),
		store:   cfg.Checkpoints,
	}
	for i := range r.lastSat {
		r.lastSat[i] = -cooldown
		r.lastCon[i] = -cooldown
		r.home[i] = -1
	}
	loads := ForecastLoads(sources, r.frameMs, cfg.EpochMs, eng.Config().Forecast)
	// With an admission gate, streams that come online later than the
	// first boundary are withheld from initial placement and queue for
	// the gate instead; without one every stream is placed up front.
	upfront := r.splitAdmission()
	assign := cfg.Placement.Place(pickLoads(loads, upfront), cfg.Boards, r.workers)
	for i, gi := range upfront {
		r.home[gi] = assign[i]
	}
	for bi := 0; bi < cfg.Boards; bi++ {
		var mine []*stream.Source
		var globals []int
		for _, gi := range upfront {
			if r.home[gi] != bi {
				continue
			}
			globals = append(globals, gi)
			mine = append(mine, sources[gi])
		}
		b := f.openBoard(eng, bi, 0, mine)
		b.group = bi / cfg.GroupSize
		b.globals = globals
		for li, gi := range globals {
			b.local[gi] = li
		}
		r.boards = append(r.boards, b)
	}

	var coord time.Duration
	for epoch := 0; ; epoch++ {
		stepped := live(r.boards)
		if len(stepped) == 0 {
			break // every board dead: nothing left to serve with
		}
		done := len(r.pending) == 0
		if done {
			for _, b := range stepped {
				if !b.sess.Done() {
					done = false
					break
				}
			}
		}
		if done {
			break
		}
		// The fleet clock is the max session clock over live boards —
		// never a fixed board's — so the boundary cadence survives any
		// board's death, including board 0's.
		now := 0.0
		for _, b := range stepped {
			if t := b.sess.Now(); t > now {
				now = t
			}
		}
		end := now + cfg.EpochMs
		f.broadcast(stepped, func(b *board) { b.step(end) })
		r.epochs++
		r.nowMs = end
		r.rec.Instant("epoch", end, fmt.Sprintf("epoch=%d boards=%d", epoch, len(stepped)))
		if cfg.Metrics != nil {
			for _, b := range stepped {
				b.futil.Set(r.forecastUtil(b))
			}
		}
		t0 := time.Now()
		for _, b := range stepped {
			r.eachHomed(b, func(li, gid int) {
				if li >= len(b.stats.StreamArrivals) {
					return
				}
				if arr := float64(b.stats.StreamArrivals[li]); arr > peakDecay*r.peak[gid] {
					r.peak[gid] = arr
				} else {
					r.peak[gid] = peakDecay * r.peak[gid]
				}
			})
		}
		// Membership first: kills and drains change who may be
		// governed or placed onto at this boundary; joins add fresh
		// destinations. Orphan re-admission itself waits until after
		// the governors so energize is not overwritten.
		r.applyEvents(epoch, end)
		for _, b := range stepped {
			if b.alive && b.leaving && b.sess.Done() {
				// A drained leaver retires: rail off, out of the registry's
				// live view, report already final.
				b.alive, b.leaveEpoch = false, epoch
				b.retire()
			}
		}
		coord += time.Since(t0)
		// Governors first, placement second: each board's controller
		// actuates from its own telemetry — on its own actor, in
		// parallel — then the coordinator rewires streams, and may
		// raise (never lower) a migration destination's rung for the
		// load it just handed it (energize). In the reverse order the
		// controllers would overwrite that actuation before it ever
		// priced a dispatch. Boards that joined at this boundary have
		// no telemetry yet and sit the round out.
		f.decideBarrier(stepped)
		t0 = time.Now()
		r.recoverOrphans(epoch, end)
		r.evacuateLeavers(epoch)
		r.admitPass(epoch, end)
		r.runGroups(epoch)
		r.checkpointPass(epoch)
		coord += time.Since(t0)
	}
	for _, b := range r.boards {
		if b.act != nil {
			b.act.stop()
		}
	}

	return r.buildReport(time.Since(start), coord)
}

// pickLoads selects the load-forecast entries for the given fleet
// stream ids, in order.
func pickLoads(loads []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, gi := range idx {
		out[i] = loads[gi]
	}
	return out
}

// buildReport finalizes every board incarnation (every actor is
// stopped by now, so the coordinator owns the sessions again; Finish
// is idempotent, so killed and retired boards contribute their
// already-final reports) and aggregates the fleet view.
func (r *runCtx) buildReport(wall, coord time.Duration) Report {
	rep := Report{
		Streams:          make([]StreamSummary, len(r.sources)),
		Migrations:       r.migrations,
		Events:           r.events,
		Checkpoints:      r.ckpts,
		CheckpointErrors: r.ckptErrs,
		WallSeconds:      wall.Seconds(),
		FleetEpochs:      r.epochs,
		CoordSeconds:     coord.Seconds(),
		Admissions:       r.admissions,
		AdmitDropped:     r.admitDropped,
	}
	for _, ev := range r.events {
		rep.LostFrames += ev.LostFrames
	}
	for gi := range rep.Streams {
		rep.Streams[gi].Stream = gi
	}
	misses := 0.0
	for _, b := range r.boards {
		br := BoardReport{
			Board: b.id, Group: b.group, Report: b.sess.Finish(),
			Globals:    b.globals,
			MigratedIn: b.in, MigratedOut: b.out,
			JoinEpoch: b.joinEpoch, LeaveEpoch: b.leaveEpoch,
		}
		rep.Boards = append(rep.Boards, br)
		rep.Frames += br.Report.Frames
		rep.FramesDropped += br.Report.FramesDropped
		rep.AdaptsSkipped += br.Report.AdaptsSkipped
		rep.BusyEnergyMJ += br.Report.BusyEnergyMJ
		rep.IdleEnergyMJ += br.Report.IdleEnergyMJ
		misses += br.Report.MissRate * float64(br.Report.Frames)
		if br.Report.VirtualSeconds > rep.VirtualSeconds {
			rep.VirtualSeconds = br.Report.VirtualSeconds
		}
		onMs, busyMs := 0.0, 0.0
		for _, es := range br.Report.Epochs {
			onMs += es.EndMs - es.StartMs
			busyMs += es.BusyMs
		}
		rep.StrandedMs += onMs*float64(r.workers) - busyMs
		// A stream that migrates to the same board twice holds two local
		// ids there; count distinct boards, not attachments.
		counted := make(map[int]bool)
		for li, sr := range br.Report.Streams {
			if li >= len(br.Globals) {
				panic(fmt.Sprintf("shard: board %d local stream %d has no fleet id", b.id, li))
			}
			ss := &rep.Streams[br.Globals[li]]
			ss.Frames += sr.Frames
			ss.EnergyMJ += sr.EnergyMJ
			ss.AdaptSteps += sr.AdaptSteps
			ss.MissRate += sr.MissRate * float64(sr.Frames)
			if sr.Frames > 0 && !counted[br.Globals[li]] {
				counted[br.Globals[li]] = true
				ss.Boards++
			}
		}
	}
	for gi := range rep.Streams {
		if rep.Streams[gi].Frames > 0 {
			rep.Streams[gi].MissRate /= float64(rep.Streams[gi].Frames)
		}
	}
	rep.EnergyMJ = rep.BusyEnergyMJ + rep.IdleEnergyMJ
	if rep.Frames > 0 {
		rep.HitRate = 1 - misses/float64(rep.Frames)
		rep.JPerFrame = rep.EnergyMJ / 1e3 / float64(rep.Frames)
	}
	// Wall-clock gauges are the one non-deterministic corner of the
	// registry; trace bytes stay pinned, the dump does not claim to be.
	r.met.epochs.Set(float64(rep.FleetEpochs))
	r.met.coordSeconds.Set(rep.CoordSeconds)
	r.met.wallSec.Set(rep.WallSeconds)
	return rep
}
