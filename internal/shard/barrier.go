package shard

import (
	"sync"

	"ldbnadapt/internal/serve"
)

// The epoch barrier. The coordinator owns every board's serve.Session
// and drives the fleet through four phases per control epoch:
//
//  1. step    — every live board runs its epoch; boards execute
//               concurrently, one goroutine each, joined before the
//               coordinator reads any board's telemetry.
//  2. decide  — each board's governor actuates from its own telemetry
//               (board-local controller execution), in parallel.
//  3. place   — the coordinator runs membership, admission and the
//               group placers, calling DetachStream, AttachStream,
//               SetControls and Finish on the quiescent sessions
//               itself.
//  4. persist — boards snapshot and encode their streams in parallel,
//               the coordinator writes the store serially.
//
// Phases 1, 2 and 4 are broadcast, a fork-join: the goroutines it
// starts exit before it returns, so between phases nothing but the
// coordinator touches a session. The join is the happens-before edge
// for everything a board's function wrote (b.stats, encoded bytes, its
// recorder's events) and for the coordinator's direct session calls
// that follow; the race-detector suite pins it. Config.Lockstep runs
// the same calls one after another on the coordinator — the serial
// reference semantics the concurrent runtime is pinned against
// (TestConcurrentMatchesLockstep).

// step runs one control epoch to end and keeps its telemetry.
func (b *board) step(end float64) { b.stats = b.sess.RunEpoch(end) }

// decide runs the board's governor against its last epoch telemetry
// and actuates the resulting controls — controller execution stays
// board-local, so an Oracle's probe sweep runs in the board's own
// goroutine, not on the coordinator.
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

// broadcast is the explicit barrier: it runs fn on every board, one
// goroutine each, and returns once all have returned. Lockstep mode
// runs them in slice order on the caller — the serial reference
// execution the concurrent runtime must reproduce bit for bit.
func (f *Fleet) broadcast(bs []*board, fn func(*board)) {
	if f.cfg.Lockstep {
		for _, b := range bs {
			fn(b)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(bs))
	for _, b := range bs {
		go func(b *board) {
			defer wg.Done()
			fn(b)
		}(b)
	}
	wg.Wait()
}

// decideBarrier runs every eligible board's governor, in parallel. A
// dead board has no governor to run; a drained board has nothing to
// govern (and an oracle would sweep probes for nothing) — its
// controller resumes at the first boundary after a stream attaches.
func (f *Fleet) decideBarrier(stepped []*board) {
	govd := make([]*board, 0, len(stepped))
	for _, b := range stepped {
		if b.alive && b.ctl != nil && !b.sess.Done() {
			govd = append(govd, b)
		}
	}
	f.broadcast(govd, func(b *board) { b.decide(f.cfg.EpochMs) })
}
