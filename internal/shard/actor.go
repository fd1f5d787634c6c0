package shard

import "ldbnadapt/internal/serve"

// Board actors. Each board's serve.Session is owned by one long-lived
// goroutine for the run's lifetime — spawned when the board joins the
// fleet, stopped when it is killed, retired or the run ends. The
// coordinator hands the actor work as functions over its bus: begin
// dispatches one, await blocks until it has run, and do is the two in
// a row. The protocol is an explicit epoch barrier:
//
//  1. step    — the coordinator broadcasts step to every live board,
//               then awaits every board. Boards execute their epochs
//               concurrently; the awaits are the barrier.
//  2. decide  — each board's governor actuates from its own telemetry
//               on its own actor (board-local controller execution),
//               in parallel.
//  3. place   — the coordinator runs membership, admission and the
//               group placers. Stream moves are detach/attach calls
//               run on the two boards' actors; there are no direct
//               cross-board Session calls.
//  4. persist — boards snapshot and encode their streams in parallel,
//               the coordinator writes the store serially.
//
// The coordinator keeps at most one function outstanding per board,
// and between a function's done signal and the next dispatch an actor
// is parked on its bus. The done signal is the happens-before edge for
// everything the function wrote (b.stats, encoded bytes, a handoff),
// and for reading the quiescent Session (Done, Now, Controls) directly
// at the barrier; the race-detector suite pins it. Config.Lockstep
// degrades every broadcast to dispatch-and-await per board — the
// serial reference semantics the concurrent runtime is pinned against
// (TestConcurrentMatchesLockstep).

// boardActor is the goroutine that owns one board incarnation's
// Session (and its governor) for the board's lifetime.
type boardActor struct {
	bus chan func()
	// done (capacity 1) signals that the last dispatched function has
	// returned; with one function outstanding it never blocks the actor.
	done   chan struct{}
	exited chan struct{}
	// stopped is coordinator-side bookkeeping (the actor never reads
	// it): true once the bus is closed and the goroutine has exited.
	stopped bool
}

func newBoardActor() *boardActor {
	a := &boardActor{bus: make(chan func()), done: make(chan struct{}, 1), exited: make(chan struct{})}
	go a.run()
	return a
}

func (a *boardActor) run() {
	defer close(a.exited)
	for fn := range a.bus {
		fn()
		a.done <- struct{}{}
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

// begin dispatches fn to the board's actor.
func (b *board) begin(fn func()) { b.act.bus <- fn }

// await blocks until the dispatched function has returned.
func (b *board) await() { <-b.act.done }

// do runs fn on the board's actor and waits for it.
func (b *board) do(fn func()) {
	b.begin(fn)
	b.await()
}

// The functions below run on the board's actor.

// step runs one control epoch to end and keeps its telemetry.
func (b *board) step(end float64) { b.stats = b.sess.RunEpoch(end) }

// decide runs the board's governor against its last epoch telemetry
// and actuates the resulting controls — controller execution stays
// board-local, so an Oracle's probe sweep costs the board's actor, not
// the coordinator's barrier.
func (b *board) decide(epochMs float64) {
	cur := b.sess.Controls()
	next := b.ctl.Decide(b.stats, cur, func(c serve.Controls) serve.EpochStats {
		return b.sess.Probe(c, epochMs)
	})
	serve.GovernEvent(b.rec, b.ctl, b.stats, cur, next)
	b.sess.SetControls(next)
}

// encode appends each of the board's homed streams' checkpoint,
// stamped with its fleet id and epoch, into the board's kept buffers
// (b.ckpt.enc, one per homed stream after the call), read from the
// live stream state. The store write stays with the coordinator.
func (b *board) encode(epoch int) {
	j := &b.ckpt
	for len(j.enc) < len(j.locals) {
		j.enc = append(j.enc, nil)
	}
	for i, li := range j.locals {
		j.enc[i] = b.sess.AppendCheckpoint(j.enc[i][:0], li, j.globals[i], epoch)
	}
}

// The request-reply calls below run one function on the (already
// quiescent) board at the boundary.

// detach lifts a stream (and its adaptation state) off the board.
func (b *board) detach(local int) (h *serve.Handoff) {
	b.do(func() { h = b.sess.DetachStream(local) })
	return h
}

// attach lands a migrating or newly admitted stream and returns its
// board-local id.
func (b *board) attach(h *serve.Handoff) (local int) {
	b.do(func() { local = b.sess.AttachStream(h) })
	return local
}

// setControls actuates controls from the coordinator (destination
// energize); the governors' own actuation rides decide.
func (b *board) setControls(c serve.Controls) { b.do(func() { b.sess.SetControls(c) }) }

// retire finalizes the board's session on its actor and stops the
// actor: the kill and drained-leaver exit path. Finish is idempotent,
// so buildReport's later direct call returns this same report.
func (b *board) retire() (rep serve.Report) {
	b.do(func() { rep = b.sess.Finish() })
	b.act.stop()
	return rep
}

// broadcast is the explicit barrier: it dispatches fn to every board,
// then awaits every board, both in slice order. Lockstep mode awaits
// each board before dispatching to the next — the serial reference
// execution the concurrent runtime must reproduce bit for bit.
func (f *Fleet) broadcast(bs []*board, fn func(*board)) {
	for _, b := range bs {
		b := b
		b.begin(func() { fn(b) })
		if f.cfg.Lockstep {
			b.await()
		}
	}
	if f.cfg.Lockstep {
		return
	}
	for _, b := range bs {
		b.await()
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
	f.broadcast(govd, func(b *board) { b.decide(f.cfg.EpochMs) })
}
