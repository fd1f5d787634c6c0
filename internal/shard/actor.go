package shard

import (
	"bytes"

	"ldbnadapt/internal/obs"
	"ldbnadapt/internal/serve"
)

// Board actors. Each board's serve.Session is owned by one long-lived
// goroutine for the run's lifetime — spawned when the board joins the
// fleet, stopped when it is killed, retired or the run ends — instead
// of the per-epoch goroutine churn the lockstep coordinator used.
// Coordinator↔board traffic moves over a typed control bus: epoch
// telemetry up; controls, stream Handoffs, checkpoint and membership
// directives down. The protocol is an explicit epoch barrier:
//
//  1. step    — the coordinator broadcasts stepEpoch to every live
//               actor, then collects every reply. Boards execute their
//               epochs concurrently; the collection is the barrier.
//  2. decide  — decideCtl broadcast/collect: each board's governor
//               actuates from its own telemetry on its own actor
//               (board-local controller execution), in parallel.
//  3. place   — the coordinator runs membership, admission and the
//               group placers. Stream moves are detachStream/
//               attachStream request-reply pairs on the two boards'
//               buses; there are no direct cross-board Session calls.
//  4. persist — checkpointStreams broadcast/collect: boards snapshot
//               and encode their streams in parallel, the coordinator
//               writes the store serially.
//
// Between a directive's reply and the next directive an actor is
// parked on its bus, so the channel operations give the coordinator a
// happens-before edge over everything the actor did: reading the
// quiescent Session (Done, Now, Controls) directly at the barrier is
// race-free, and the race-detector suite pins it. Config.Lockstep
// degrades every broadcast/collect to send-and-await per board — the
// serial reference semantics the concurrent runtime is pinned against
// (TestConcurrentMatchesLockstep).

// directive is one message on a board's control bus.
type directive interface {
	apply(a *boardActor)
}

// boardActor owns one board incarnation's Session (and its governor)
// for the board's lifetime.
type boardActor struct {
	sess *serve.Session
	ctl  serve.Controller
	// rec is the board's trace recorder (nil when tracing is off);
	// governor-decision instants are emitted here, on the actor's own
	// goroutine, like every other event of the board's recorder.
	rec *obs.Recorder
	bus chan directive
	// Persistent reply channels (capacity 1): the coordinator keeps at
	// most one directive outstanding per board, so replies never block
	// the actor and no channel is allocated per message.
	stepc  chan serve.EpochStats
	ackc   chan struct{}
	handc  chan *serve.Handoff
	localc chan int
	ckptc  chan [][]byte
	repc   chan serve.Report
	exited chan struct{}
	// stopped is coordinator-side bookkeeping (the actor never reads
	// it): true once the bus is closed and the goroutine has exited.
	stopped bool
}

// newBoardActor starts the owning goroutine for a session whose setup
// (initial controls) is complete.
func newBoardActor(sess *serve.Session, ctl serve.Controller, rec *obs.Recorder) *boardActor {
	a := &boardActor{
		sess:   sess,
		ctl:    ctl,
		rec:    rec,
		bus:    make(chan directive),
		stepc:  make(chan serve.EpochStats, 1),
		ackc:   make(chan struct{}, 1),
		handc:  make(chan *serve.Handoff, 1),
		localc: make(chan int, 1),
		ckptc:  make(chan [][]byte, 1),
		repc:   make(chan serve.Report, 1),
		exited: make(chan struct{}),
	}
	go a.run()
	return a
}

func (a *boardActor) run() {
	defer close(a.exited)
	for d := range a.bus {
		d.apply(a)
	}
}

// stop closes the bus and waits for the goroutine to exit, after which
// the coordinator owns the session again (buildReport's direct Finish).
func (a *boardActor) stop() {
	if a.stopped {
		return
	}
	a.stopped = true
	close(a.bus)
	<-a.exited
}

// stepEpoch runs one control epoch to end and replies with its
// telemetry.
type stepEpoch struct {
	end   float64
	reply chan serve.EpochStats
}

func (d stepEpoch) apply(a *boardActor) { d.reply <- a.sess.RunEpoch(d.end) }

// decideCtl runs the board's governor against the epoch telemetry the
// coordinator observed for it and actuates the resulting controls —
// controller execution stays board-local, so an Oracle's probe sweep
// costs the board's actor, not the coordinator's barrier.
type decideCtl struct {
	stats   serve.EpochStats
	epochMs float64
	reply   chan struct{}
}

func (d decideCtl) apply(a *boardActor) {
	cur := a.sess.Controls()
	next := a.ctl.Decide(d.stats, cur, func(c serve.Controls) serve.EpochStats {
		return a.sess.Probe(c, d.epochMs)
	})
	serve.GovernEvent(a.rec, a.ctl, d.stats, cur, next)
	a.sess.SetControls(next)
	d.reply <- struct{}{}
}

// detachStream lifts a stream (and its adaptation state) off the board.
type detachStream struct {
	local int
	reply chan *serve.Handoff
}

func (d detachStream) apply(a *boardActor) { d.reply <- a.sess.DetachStream(d.local) }

// attachStream lands a migrating or newly admitted stream and replies
// with its board-local id.
type attachStream struct {
	h     *serve.Handoff
	reply chan int
}

func (d attachStream) apply(a *boardActor) { d.reply <- a.sess.AttachStream(d.h) }

// setControls actuates controls from the coordinator (initial rung,
// destination energize); the governors' own actuation rides decideCtl.
type setControls struct {
	c     serve.Controls
	reply chan struct{}
}

func (d setControls) apply(a *boardActor) {
	a.sess.SetControls(d.c)
	d.reply <- struct{}{}
}

// checkpointStreams snapshots and encodes the given streams on the
// board; a nil entry in the reply marks an encode failure. Stamping
// and the store write stay with the coordinator.
type checkpointStreams struct {
	locals  []int
	globals []int
	epoch   int
	reply   chan [][]byte
}

func (d checkpointStreams) apply(a *boardActor) {
	out := make([][]byte, len(d.locals))
	for i, li := range d.locals {
		c := a.sess.Checkpoint(li)
		c.Stream, c.Epoch = d.globals[i], d.epoch
		var buf bytes.Buffer
		if err := serve.EncodeCheckpoint(&buf, c); err == nil {
			out[i] = buf.Bytes()
		}
	}
	d.reply <- out
}

// finishBoard finalizes the session and replies with its report — the
// kill and retire path.
type finishBoard struct {
	reply chan serve.Report
}

func (d finishBoard) apply(a *boardActor) { d.reply <- a.sess.Finish() }

// Coordinator-side bus helpers. begin/await pairs split a directive
// into its broadcast and collection halves so the barrier can overlap
// every board's work; the synchronous helpers are for request-reply
// traffic at the (already quiescent) boundary.

func (b *board) beginStep(end float64) {
	b.act.bus <- stepEpoch{end: end, reply: b.act.stepc}
}

func (b *board) awaitStep() { b.stats = <-b.act.stepc }

func (b *board) beginDecide(epochMs float64) {
	b.act.bus <- decideCtl{stats: b.stats, epochMs: epochMs, reply: b.act.ackc}
}

func (b *board) awaitDecide() { <-b.act.ackc }

func (b *board) beginCheckpoint(locals, globals []int, epoch int) {
	b.act.bus <- checkpointStreams{locals: locals, globals: globals, epoch: epoch, reply: b.act.ckptc}
}

func (b *board) awaitCheckpoint() [][]byte { return <-b.act.ckptc }

func (b *board) detach(local int) *serve.Handoff {
	b.act.bus <- detachStream{local: local, reply: b.act.handc}
	return <-b.act.handc
}

func (b *board) attach(h *serve.Handoff) int {
	b.act.bus <- attachStream{h: h, reply: b.act.localc}
	return <-b.act.localc
}

func (b *board) setControls(c serve.Controls) {
	b.act.bus <- setControls{c: c, reply: b.act.ackc}
	<-b.act.ackc
}

// retire finalizes the board's session on its actor and stops the
// actor: the kill and drained-leaver exit path. Finish is idempotent,
// so buildReport's later direct call returns this same report.
func (b *board) retire() serve.Report {
	b.act.bus <- finishBoard{reply: b.act.repc}
	rep := <-b.act.repc
	b.act.stop()
	return rep
}

// broadcast is the explicit barrier: begin(i) dispatches board i's
// directive and await(i) collects its reply, both in index order, every
// dispatch before any collect. Lockstep mode awaits each board before
// dispatching the next — the serial reference execution the concurrent
// runtime must reproduce bit for bit.
func (f *Fleet) broadcast(n int, begin, await func(i int)) {
	for i := 0; i < n; i++ {
		begin(i)
		if f.cfg.Lockstep {
			await(i)
		}
	}
	if f.cfg.Lockstep {
		return
	}
	for i := 0; i < n; i++ {
		await(i)
	}
}

// decideBarrier runs every eligible board's governor on its own actor.
// A dead board has no governor to run; a drained board has nothing to
// govern (and an oracle would sweep probes for nothing) — its
// controller resumes at the first boundary after a stream attaches.
func (f *Fleet) decideBarrier(stepped []*board) {
	var govd []*board
	for _, b := range stepped {
		if b.alive && b.ctl != nil && !b.sess.Done() {
			govd = append(govd, b)
		}
	}
	f.broadcast(len(govd),
		func(i int) { govd[i].beginDecide(f.cfg.EpochMs) },
		func(i int) { govd[i].awaitDecide() })
}
