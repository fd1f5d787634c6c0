package serve

import (
	"fmt"
	"io"
	"math"
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
	// (forecast.Snapshot); kind "" means the forecaster was a custom
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
	c := &Checkpoint{
		FPS:        s.sources[id].FPS,
		Quantized:  s.p.ctrl.Quantized,
		state:      s.states[id].snapshot(),
		sinceAdapt: s.p.sinceAdapt[id],
	}
	if kind, st, ok := forecast.Snapshot(s.fc[id]); ok {
		c.fcKind, c.fcState = kind, st
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
// decode reproduces the checkpoint bitwise.
func EncodeCheckpoint(w io.Writer, c *Checkpoint) error {
	st := c.state
	extras := map[string]*tensor.Tensor{
		"meta": packF64([]float64{
			checkpointVersion,
			float64(c.Stream), float64(c.Epoch), c.FPS,
			float64(c.sinceAdapt), float64(st.steps), float64(st.opt.Step),
			float64(len(st.bn)), float64(len(st.pending)),
			b2f(c.Quantized),
		}),
	}
	for _, l := range st.lanes() {
		if len(l.data) > 0 {
			extras[l.name] = tensor.FromSlice(l.data, len(l.data))
		}
	}
	if c.fcKind != "" {
		extras["fc."+c.fcKind] = packF64(c.fcState)
	}
	for i, smp := range st.pending {
		extras[fmt.Sprintf("pending.%03d.image", i)] = smp.Image
		cells := make([]float32, len(smp.Cells)+1)
		cells[0] = float32(len(smp.Cells))
		for j, v := range smp.Cells {
			cells[j+1] = float32(v)
		}
		extras[fmt.Sprintf("pending.%03d.cells", i)] = tensor.FromSlice(cells, len(cells))
	}
	return nn.SaveParams(w, nil, extras)
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

// packF64 stores float64 values bit-exactly in a float32 tensor, two
// bit lanes per value, so checkpoints round-trip bitwise through the
// float32-only tensor wire format.
func packF64(vals []float64) *tensor.Tensor {
	t := tensor.New(2 * len(vals))
	for i, v := range vals {
		b := math.Float64bits(v)
		t.Data[2*i] = math.Float32frombits(uint32(b))
		t.Data[2*i+1] = math.Float32frombits(uint32(b >> 32))
	}
	return t
}

// unpackF64 reverses packF64.
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
