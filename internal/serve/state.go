package serve

import (
	"sync"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/ufld"
)

// streamState is everything one camera stream owns while being served:
// a snapshot of every BatchNorm layer's state (running statistics and
// the γ/β parameters LD-BN-ADAPT updates), the stream's optimizer
// moments, and its pending adaptation window. Workers swap this state
// into whichever model replica happens to process the stream, so the
// stream's adaptation trajectory is independent of worker scheduling.
type streamState struct {
	mu sync.Mutex
	// bn holds one source per BN layer, in model.BatchNorms() order.
	bn []nn.BNSource
	// opt is the stream's optimizer state over its γ/β, flat in
	// BNParams() order, so it follows the stream across replicas.
	opt nn.OptState
	// steps counts the stream's lifetime adaptation steps (drives
	// warmup, and survives migration with the stream).
	steps int
	// baseSteps is the lifetime count at the moment the stream attached
	// to this board (zero for streams that started here): reports charge
	// a board only the steps it executed.
	baseSteps int
	// pending accumulates samples since the last adaptation step.
	pending []ufld.Sample
}

// newStreamState snapshots the deployed model's BN state for one
// stream.
func newStreamState(m *ufld.Model) *streamState {
	bns := m.BatchNorms()
	st := &streamState{bn: make([]nn.BNSource, len(bns))}
	flat := 0
	for i, b := range bns {
		st.bn[i] = nn.BNSource{
			Mean:  append([]float32(nil), b.RunningMean.Data...),
			Var:   append([]float32(nil), b.RunningVar.Data...),
			Gamma: append([]float32(nil), b.Gamma.Value.Data...),
			Beta:  append([]float32(nil), b.Beta.Value.Data...),
		}
		flat += 2 * b.C
	}
	st.opt = nn.NewOptState(flat)
	return st
}

// snapshot deep-copies the stream's adaptation state for migration:
// BN statistics and γ/β, optimizer moments, warmup counter and the
// pending adaptation-window samples (samples themselves are shared —
// they are read-only).
func (st *streamState) snapshot() *streamState {
	st.mu.Lock()
	defer st.mu.Unlock()
	cp := &streamState{
		bn:        make([]nn.BNSource, len(st.bn)),
		steps:     st.steps,
		baseSteps: st.steps,
		opt:       st.opt.Clone(),
		pending:   append([]ufld.Sample(nil), st.pending...),
	}
	for i, b := range st.bn {
		cp.bn[i] = nn.BNSource{
			Mean:  append([]float32(nil), b.Mean...),
			Var:   append([]float32(nil), b.Var...),
			Gamma: append([]float32(nil), b.Gamma...),
			Beta:  append([]float32(nil), b.Beta...),
		}
	}
	return cp
}

// swapInto installs the stream's BN state on a replica's layers
// (caller holds st.mu).
func (st *streamState) swapInto(bns []*nn.BatchNorm2D) {
	for i, b := range bns {
		copy(b.RunningMean.Data, st.bn[i].Mean)
		copy(b.RunningVar.Data, st.bn[i].Var)
		copy(b.Gamma.Value.Data, st.bn[i].Gamma)
		copy(b.Beta.Value.Data, st.bn[i].Beta)
	}
}

// captureFrom copies a replica's (possibly updated) BN state back into
// the stream snapshot (caller holds st.mu).
func (st *streamState) captureFrom(bns []*nn.BatchNorm2D) {
	for i, b := range bns {
		copy(st.bn[i].Mean, b.RunningMean.Data)
		copy(st.bn[i].Var, b.RunningVar.Data)
		copy(st.bn[i].Gamma, b.Gamma.Value.Data)
		copy(st.bn[i].Beta, b.Beta.Value.Data)
	}
}
