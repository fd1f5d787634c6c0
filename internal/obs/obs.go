// Package obs is the deterministic event-time observability layer of
// the serving stack: trace spans and instant events stamped on the
// engine's virtual clock (internal/serve's event-time milliseconds),
// plus a fleet metrics registry (counters, gauges, fixed-bucket
// histograms). Because every timestamp is virtual, a seeded run's
// trace is bitwise-reproducible — and identical between the fleet
// runtime's Config.Lockstep serial reference and its concurrent
// barrier — so the observability layer itself is pinned by tests
// (shard's TestConcurrentMatchesLockstep) rather than best-effort.
//
// The design splits three ways:
//
//   - Recorder is a single-writer event buffer. The fleet coordinator
//     owns one (board -1) and each board one; a board's recorder is
//     written by whichever goroutine runs that board's phase work, one
//     at a time, and the epoch barrier's happens-before edges make the
//     writes and the merge race-free without any locking on the
//     emission path.
//   - Trace owns the recorders and merges their buffers into one
//     deterministic event order: concatenate in recorder-creation
//     order (fleet first, then boards in open order), then stable-sort
//     by timestamp — so equal-timestamp events resolve
//     fleet-before-board, then by within-recorder emission order,
//     identically in lockstep and concurrent mode.
//   - Registry (registry.go) holds named atomic instruments with a
//     nil-safe no-op default: a nil *Registry yields nil instruments
//     whose methods return immediately, so the hot path pays a
//     pointer test and nothing else when observability is off.
//
// Exporters live in export.go: Chrome trace-event JSON (Perfetto
// loads it; one track per board, one per fleet stream), a CSV epoch
// timeline, and a text metrics dump. cmd/ldserve wires them behind
// -trace-out / -metrics-out / -epoch-csv, and cmd/tracecheck
// validates an emitted trace (spans nest, async pairs balance).
//
// This package is observability plumbing; the post-hoc experiment
// report tables (means, percentiles) live in internal/metrics.
package obs

import "sort"

// Kind discriminates the event shapes a Recorder emits.
type Kind uint8

const (
	// Span is a complete duration event on a board worker lane (or the
	// control lane): a batched forward, an adaptation step, a control
	// epoch. Spans on one lane nest strictly.
	Span Kind = iota
	// Begin opens a frame-lifecycle interval on a stream track. Frame
	// intervals of one stream may partially overlap (a frame arrives
	// while the previous one is still queued), which is why frames are
	// async begin/end pairs rather than Spans.
	Begin
	// End closes the Begin with the same stream and ID.
	End
	// Instant is a zero-duration control-plane event: an epoch
	// boundary, a governor decision, a migration, a kill/drain/join,
	// an admission, a checkpoint write.
	Instant
)

// Event is one trace record. Timestamps and durations are virtual
// event-time milliseconds (the serve engine's clock), never wall time.
type Event struct {
	Kind Kind
	// Name labels the event ("batch", "adapt", "epoch", "frame",
	// "migrate", ...). The taxonomy is documented in
	// internal/shard/README.md.
	Name string
	// TsMs is the event start (Span/Begin) or occurrence (Instant/End)
	// on the virtual clock.
	TsMs float64
	// DurMs is the Span length; zero for the other kinds.
	DurMs float64
	// Board is the emitting board's dense id, or -1 for the fleet
	// coordinator.
	Board int
	// Worker is the board worker lane a Span occupies, or -1 for the
	// board's control lane (epoch spans, instants).
	Worker int
	// Stream is the fleet-global stream id for Begin/End (frame
	// lifecycle), or -1 when the event is not stream-scoped.
	Stream int
	// ID pairs a Begin with its End within one stream: the frame
	// index, which survives migration (Handoff keeps frame indices).
	ID int
	// Detail is a preformatted "k=v k=v" payload. Callers format it
	// with fixed-precision verbs so the bytes are reproducible.
	Detail string
}

// Recorder is a single-writer append-only event buffer bound to one
// board (or the fleet coordinator, board -1). All methods are nil-safe
// no-ops so emission sites need no "if enabled" guards beyond the one
// pointer test, and probe clones can silence tracing by nilling their
// recorder.
type Recorder struct {
	board     int
	mapStream func(local int) int
	events    []Event
}

// StreamID translates a board-local stream index to the fleet-global
// id (identity when no mapping was installed, -1 on a nil Recorder or
// unknown local index).
func (r *Recorder) StreamID(local int) int {
	if r == nil {
		return -1
	}
	if r.mapStream == nil {
		return local
	}
	return r.mapStream(local)
}

// Span records a complete duration event on a worker lane (worker -1 =
// the board's control lane).
func (r *Recorder) Span(name string, worker int, startMs, durMs float64, detail string) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Kind: Span, Name: name, TsMs: startMs, DurMs: durMs,
		Board: r.board, Worker: worker, Stream: -1, Detail: detail,
	})
}

// Frame records one frame's lifecycle interval on its stream track:
// a Begin at the arrival timestamp and the matching End at completion
// (or shed) time, emitted together once the outcome is known — so a
// trace never holds a dangling open, even when a board is killed
// mid-epoch (lost frames emit nothing; the kill instant counts them).
func (r *Recorder) Frame(localStream, id int, beginMs, endMs float64, detail string) {
	if r == nil {
		return
	}
	gid := r.StreamID(localStream)
	r.events = append(r.events,
		Event{Kind: Begin, Name: "frame", TsMs: beginMs, Board: r.board, Worker: -1, Stream: gid, ID: id},
		Event{Kind: End, Name: "frame", TsMs: endMs, Board: r.board, Worker: -1, Stream: gid, ID: id, Detail: detail},
	)
}

// Instant records a zero-duration control-plane event on the board's
// control lane (or the fleet track for the coordinator's recorder).
func (r *Recorder) Instant(name string, tsMs float64, detail string) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Kind: Instant, Name: name, TsMs: tsMs,
		Board: r.board, Worker: -1, Stream: -1, Detail: detail,
	})
}

// Trace owns the run's recorders. A nil *Trace hands out nil
// Recorders, so "tracing off" needs no branches at the wiring sites
// either.
type Trace struct {
	recs []*Recorder
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Recorder creates and registers a single-writer event buffer for one
// board (-1 = the fleet coordinator). mapStream translates board-local
// stream indices to fleet-global ids (nil = identity). Creation order
// is the merge tie-break order, so create the coordinator's recorder
// before any board's. Not safe for concurrent use — the fleet
// coordinator opens boards single-threaded.
func (t *Trace) Recorder(board int, mapStream func(local int) int) *Recorder {
	if t == nil {
		return nil
	}
	r := &Recorder{board: board, mapStream: mapStream}
	t.recs = append(t.recs, r)
	return r
}

// Events merges every recorder's buffer into one deterministic order:
// concatenation in recorder-creation order, then a stable sort by
// timestamp. Call only after the run finished (the fleet joins every
// goroutine it starts before returning, which is the happens-before
// edge that makes this read race-free).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	n := 0
	for _, r := range t.recs {
		n += len(r.events)
	}
	out := make([]Event, 0, n)
	for _, r := range t.recs {
		out = append(out, r.events...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TsMs < out[j].TsMs })
	return out
}
