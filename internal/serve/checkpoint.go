package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ldbnadapt/internal/forecast"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// Checkpoint is a stream's full adaptation state frozen at an epoch
// boundary, in a form that survives the board that produced it: BN
// running statistics and γ/β, optimizer moments and step count, the
// warmup counter, the open adaptation window (cadence position plus
// pending samples) and the arrival-rate forecaster's history. It is
// the durable twin of Handoff — a Handoff moves a live stream between
// boards through memory; a Checkpoint revives a dead board's stream
// from storage onto a survivor, at the price of losing whatever
// adaptation happened after the snapshot (bounded by the checkpoint
// cadence).
type Checkpoint struct {
	// Stream is the fleet-global stream id (the coordinator's key, not
	// a board-local id). Epoch is the fleet epoch the snapshot was
	// taken at. Both are set by the caller that owns those namespaces.
	Stream, Epoch int
	// FPS is the stream's nominal camera rate, kept so a recovered
	// stream can be re-admitted with its original pacing metadata.
	FPS float64
	// Quantized records whether the board was serving on the int8
	// inference rung (Controls.Quantized) when the snapshot was taken —
	// the placement signal a failover coordinator reads, mirroring
	// Handoff.Quantized.
	Quantized bool

	state      *streamState
	sinceAdapt int
	// fcKind/fcState are the forecaster model and its flattened state
	// (forecast.AppendSnapshot); kind "" means the forecaster was a custom
	// implementation the codec cannot carry and restore starts fresh.
	fcKind  string
	fcState []float64
}

// Forecast is the checkpointed forecaster's next-epoch arrival
// prediction — the load score failover placement ranks a recovered
// stream by. Zero when no forecaster state was captured.
func (c *Checkpoint) Forecast() float64 {
	if c.fcKind == "" {
		return 0
	}
	f, err := forecast.Restore(c.fcKind, c.fcState)
	if err != nil {
		return 0
	}
	return f.Forecast()
}

// Steps is the stream's lifetime adaptation-step count at the
// snapshot, a staleness proxy for reports and debugging.
func (c *Checkpoint) Steps() int { return c.state.steps }

// Checkpoint snapshots board-local stream id's adaptation state
// without detaching it — the periodic durability hook a coordinator
// calls at epoch boundaries. Stream and Epoch are left zero for the
// caller to fill (they belong to the fleet namespace, not the board).
// Call only at an epoch boundary.
func (s *Session) Checkpoint(id int) *Checkpoint {
	c := s.checkpointOf(id, s.states[id].snapshot(), nil)
	return &c
}

// checkpointOf is board-local stream id's checkpoint over adaptation
// state st, with the forecaster's state appended to fc.
func (s *Session) checkpointOf(id int, st *streamState, fc []float64) Checkpoint {
	c := Checkpoint{
		FPS:        s.sources[id].FPS,
		Quantized:  s.p.ctrl.Quantized,
		state:      st,
		sinceAdapt: s.p.sinceAdapt[id],
	}
	if kind, v, ok := forecast.AppendSnapshot(fc, s.fc[id]); ok {
		c.fcKind, c.fcState = kind, v
	}
	return c
}

// RestoreHandoff turns a decoded checkpoint back into a live Handoff
// carrying the given future frames, ready for Session.AttachStream on
// a surviving board. The checkpoint's state is deep-copied, so one
// decoded checkpoint can seed several restore attempts.
func (e *Engine) RestoreHandoff(c *Checkpoint, src *stream.Source) *Handoff {
	h := &Handoff{
		Source:     src,
		Quantized:  c.Quantized,
		state:      c.state.snapshot(),
		sinceAdapt: c.sinceAdapt,
	}
	if c.fcKind != "" {
		if f, err := forecast.Restore(c.fcKind, c.fcState); err == nil {
			h.fc = f
		}
	}
	return h
}

// NewHandoff wraps the given frames with cold (deployment-default)
// adaptation state — the fallback when a stream's checkpoint is
// missing or unreadable: the stream survives, its adaptation history
// does not.
func (e *Engine) NewHandoff(src *stream.Source) *Handoff {
	return &Handoff{Source: src, state: newStreamState(e.model)}
}

// Forecast is the handoff's predicted next-epoch arrival count (zero
// for a stream travelling without forecaster history).
func (h *Handoff) Forecast() float64 {
	if h.fc == nil {
		return 0
	}
	return h.fc.Forecast()
}

// checkpointVersion guards the meta layout below. Version 2 appended
// the Quantized lane; older checkpoints are rejected rather than
// guessed at (failover falls back to cold state on any decode error).
const checkpointVersion = 2

// EncodeCheckpoint writes c to w as an nn parameter bundle (the
// "LDP1" format of nn.SaveParams) holding only named extras: a packed
// "meta" record, per-BN-layer state, optimizer moments, forecaster
// state and the pending adaptation-window samples. Every scalar is
// stored bit-exactly (float64 values as two float32 bit lanes), so
// decode reproduces the checkpoint bitwise. The bytes are appendTo's,
// written in one call; into a *bytes.Buffer they are encoded in place,
// so a buffer with room allocates nothing.
func EncodeCheckpoint(w io.Writer, c *Checkpoint) error {
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Write(c.appendTo(buf.AvailableBuffer()))
		return nil
	}
	_, err := w.Write(c.appendTo(nil))
	return err
}

// AppendCheckpoint appends board-local stream id's checkpoint, stamped
// with the fleet-global stream id and epoch, to b and returns the
// extended buffer: the bytes EncodeCheckpoint writes for
// s.Checkpoint(id) so stamped, read from the live state under the
// stream's lock instead of from a snapshot copy. Into a buffer with
// room it allocates nothing. Call only at an epoch boundary.
func (s *Session) AppendCheckpoint(b []byte, id, stream, epoch int) []byte {
	st := s.states[id]
	var fc [5]float64
	c := s.checkpointOf(id, st, fc[:0])
	c.Stream, c.Epoch = stream, epoch
	st.mu.Lock()
	defer st.mu.Unlock()
	return c.appendTo(b)
}

// appendTo appends c's v2 encoding to b: an LDP1 bundle whose records
// come in the sorted-name order nn.SaveParams gives a map of them —
// "bn.<i>.{beta,gamma,mean,var}" by lexNext, "fc.<kind>", "meta",
// "opt.m", "opt.v", then "pending.<i>.{cells,image}" — with empty
// float32 lanes left out. It builds no tensor, map or name string.
func (c *Checkpoint) appendTo(b []byte) []byte {
	st := c.state
	count := 1 + 2*len(st.pending) + nonEmpty(st.opt.M) + nonEmpty(st.opt.V)
	for _, v := range st.bn {
		count += nonEmpty(v.Beta) + nonEmpty(v.Gamma) + nonEmpty(v.Mean) + nonEmpty(v.Var)
	}
	if c.fcKind != "" {
		count++
	}
	b = nn.AppendBundleHeader(b, count)
	var name [48]byte
	for i := lexNext(-1, len(st.bn)); i >= 0; i = lexNext(i, len(st.bn)) {
		v := st.bn[i]
		prefix := appendIndex(append(name[:0], "bn."...), i)
		b = appendLane(b, append(prefix, ".beta"...), v.Beta)
		b = appendLane(b, append(prefix, ".gamma"...), v.Gamma)
		b = appendLane(b, append(prefix, ".mean"...), v.Mean)
		b = appendLane(b, append(prefix, ".var"...), v.Var)
	}
	if c.fcKind != "" {
		b = nn.AppendRecordName(b, append(append(name[:0], "fc."...), c.fcKind...))
		b = appendF64s(b, c.fcState...)
	}
	b = appendF64s(nn.AppendRecordName(b, "meta"),
		checkpointVersion,
		float64(c.Stream), float64(c.Epoch), c.FPS,
		float64(c.sinceAdapt), float64(st.steps), float64(st.opt.Step),
		float64(len(st.bn)), float64(len(st.pending)),
		b2f(c.Quantized))
	b = appendLane(b, append(name[:0], "opt.m"...), st.opt.M)
	b = appendLane(b, append(name[:0], "opt.v"...), st.opt.V)
	for i := lexNext(-1, len(st.pending)); i >= 0; i = lexNext(i, len(st.pending)) {
		smp := st.pending[i]
		prefix := appendIndex(append(name[:0], "pending."...), i)
		b = nn.AppendRecordName(b, append(prefix, ".cells"...))
		b = tensor.AppendHeader(b, len(smp.Cells)+1)
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(len(smp.Cells))))
		for _, v := range smp.Cells {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
		}
		b = smp.Image.AppendTo(nn.AppendRecordName(b, append(prefix, ".image"...)))
	}
	return b
}

// appendLane appends one float32 lane as a rank-1 record, or nothing
// for an empty lane.
func appendLane(b, name []byte, data []float32) []byte {
	if len(data) == 0 {
		return b
	}
	b = tensor.AppendHeader(nn.AppendRecordName(b, name), len(data))
	return tensor.AppendFloats(b, data)
}

// appendF64s appends vals as a rank-1 record of two float32 bit lanes
// per value, low word first: float64 values stored bit-exactly in the
// float32-only tensor format (unpackF64 reverses it).
func appendF64s(b []byte, vals ...float64) []byte {
	b = tensor.AppendHeader(b, 2*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// nonEmpty counts a lane as a record: 1 unless it is empty.
func nonEmpty(data []float32) int { return min(len(data), 1) }

// appendIndex appends i as the record names spell it: decimal, at
// least three digits, zero-padded (fmt's %03d).
func appendIndex(b []byte, i int) []byte {
	switch {
	case i < 10:
		b = append(b, '0', '0')
	case i < 100:
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// lexNext walks 0..n-1 in the byte order of the indices' appendIndex
// names, the order a sorted name map puts records in: it returns the
// index after i, the first for i = -1, and -1 after the last. Up to
// 1000 entries that is numeric order; past it a longer name follows
// the name it extends ("100", "1000", ..., "1009", "101"), because the
// '.' after a name sorts before every digit.
func lexNext(i, n int) int {
	if i >= 100 && i*10 < n {
		return i * 10
	}
	for i >= 1000 && (i%10 == 9 || i+1 >= n) {
		i /= 10
	}
	if i+1 >= n || i == 999 {
		return -1
	}
	return i + 1
}

// DecodeCheckpoint reads a checkpoint written by EncodeCheckpoint and
// validates it against this engine's deployed model: the BN layer
// count and per-layer widths must match, because the state is about
// to be swapped into this model's replicas. Truncated data, a foreign
// magic, a mismatched model, a counter that is not a non-negative
// integer, an FPS that is not finite and positive, or a pending window
// whose count or frame size cannot be right are all errors — a
// failover that cannot trust a checkpoint must fall back to cold
// state, never to a torn one.
func (e *Engine) DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	extras, err := nn.LoadParams(r, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: reading checkpoint: %w", err)
	}
	meta, err := unpackF64(extras["meta"])
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint meta: %w", err)
	}
	if len(meta) != 10 {
		return nil, fmt.Errorf("serve: checkpoint meta has %d fields, want 10", len(meta))
	}
	if v := int(meta[0]); v != checkpointVersion {
		return nil, fmt.Errorf("serve: checkpoint version %d, want %d", v, checkpointVersion)
	}
	// A negative or fractional counter cannot be honest, and a negative
	// optimizer step poisons the next Adam update (its bias correction
	// 1 − β^step is 0 at step 0). Each counter's range is checked as a
	// float before it is converted, and it must convert exactly.
	for _, f := range [...]struct {
		name string
		i    int
	}{{"stream", 1}, {"epoch", 2}, {"frames since adaptation", 4}, {"step count", 5}, {"optimizer step", 6}} {
		if v := meta[f.i]; !(v >= 0 && v <= 1<<53 && float64(int64(v)) == v) {
			return nil, fmt.Errorf("serve: checkpoint %s %v is not a non-negative integer", f.name, v)
		}
	}
	if fps := meta[3]; !(fps > 0 && fps <= math.MaxFloat64) {
		return nil, fmt.Errorf("serve: checkpoint FPS %v is not finite and positive", fps)
	}
	c := &Checkpoint{
		Stream:     int(meta[1]),
		Epoch:      int(meta[2]),
		FPS:        meta[3],
		Quantized:  meta[9] != 0,
		sinceAdapt: int(meta[4]),
	}
	// Each pending sample is two records, so a count past len(extras)
	// (or a negative or NaN one) cannot be honest; checking the float
	// before converting keeps the allocation below bounded.
	if p := meta[8]; !(p >= 0 && p <= float64(len(extras))) {
		return nil, fmt.Errorf("serve: checkpoint pending count %v out of range [0, %d]", p, len(extras))
	}
	nBN, nPending := int(meta[7]), int(meta[8])
	bns := e.model.BatchNorms()
	if nBN != len(bns) {
		return nil, fmt.Errorf("serve: checkpoint has %d BN layers, model has %d", nBN, len(bns))
	}
	chw := 3 * e.model.Cfg.InputH * e.model.Cfg.InputW
	st := &streamState{steps: int(meta[5])}
	st.baseSteps = st.steps
	st.slab, st.bn = newBNSlab(bns)
	st.opt = nn.NewOptState(len(st.slab) / 2)
	st.opt.Step = int(meta[6])
	for _, l := range st.lanes() {
		switch t := extras[l.name]; {
		case t == nil && len(l.data) == 0:
		case t == nil:
			return nil, fmt.Errorf("serve: checkpoint is missing %s", l.name)
		case t.Size() != len(l.data):
			return nil, fmt.Errorf("serve: checkpoint %s has %d values, model needs %d", l.name, t.Size(), len(l.data))
		default:
			copy(l.data, t.Data)
		}
	}
	st.pending = make([]ufld.Sample, nPending)
	for i := range st.pending {
		img := extras[fmt.Sprintf("pending.%03d.image", i)]
		cells := extras[fmt.Sprintf("pending.%03d.cells", i)]
		if img == nil || cells == nil {
			return nil, fmt.Errorf("serve: checkpoint is missing pending sample %d", i)
		}
		if img.Size() != chw {
			return nil, fmt.Errorf("serve: checkpoint pending.%03d.image has %d values, model needs %d",
				i, img.Size(), chw)
		}
		n := int(cells.Data[0])
		if n < 0 || n != cells.Size()-1 {
			return nil, fmt.Errorf("serve: checkpoint pending.%03d.cells header %d does not match %d entries",
				i, n, cells.Size()-1)
		}
		cs := make([]int, n)
		for j := range cs {
			cs[j] = int(cells.Data[j+1])
		}
		st.pending[i] = ufld.Sample{Image: img, Cells: cs}
	}
	c.state = st
	for name, t := range extras {
		if strings.HasPrefix(name, "fc.") {
			c.fcKind = strings.TrimPrefix(name, "fc.")
			if c.fcState, err = unpackF64(t); err != nil {
				return nil, fmt.Errorf("serve: checkpoint forecaster state: %w", err)
			}
			break
		}
	}
	return c, nil
}

// lane is one named float32 record of a checkpoint.
type lane struct {
	name string
	data []float32
}

// lanes names the state's float32 records as the v2 layout stores
// them: four per BN layer, then the two optimizer moments.
func (st *streamState) lanes() []lane {
	ls := make([]lane, 0, 4*len(st.bn)+2)
	for i, v := range st.bn {
		prefix := fmt.Sprintf("bn.%03d.", i)
		for _, l := range [4]lane{{"mean", v.Mean}, {"var", v.Var}, {"gamma", v.Gamma}, {"beta", v.Beta}} {
			ls = append(ls, lane{prefix + l.name, l.data})
		}
	}
	return append(ls, lane{"opt.m", st.opt.M}, lane{"opt.v", st.opt.V})
}

// b2f encodes a bool as a meta lane.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// unpackF64 reverses appendF64s.
func unpackF64(t *tensor.Tensor) ([]float64, error) {
	if t == nil {
		return nil, fmt.Errorf("missing record")
	}
	if t.Size()%2 != 0 {
		return nil, fmt.Errorf("odd lane count %d", t.Size())
	}
	vals := make([]float64, t.Size()/2)
	for i := range vals {
		lo := uint64(math.Float32bits(t.Data[2*i]))
		hi := uint64(math.Float32bits(t.Data[2*i+1]))
		vals[i] = math.Float64frombits(hi<<32 | lo)
	}
	return vals, nil
}
