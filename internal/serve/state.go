package serve

import (
	"sync"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/ufld"
)

// streamState is everything one camera stream owns while being served:
// its BatchNorm state (running statistics and the γ/β LD-BN-ADAPT
// updates), its optimizer moments, and its pending adaptation window.
// Workers swap this state into whichever replica serves the stream, so
// the replica choice does not matter. The order does: at Workers > 1,
// st.mu stops tearing, but the Go scheduler decides whether a batch on
// one worker sees the stream's step running on another.
type streamState struct {
	mu sync.Mutex
	// slab is the stream's whole BN state in one allocation, laid out
	// by bnViews; bn holds its per-layer views, in BatchNorms() order.
	slab []float32
	bn   []nn.BNSource
	// opt is the stream's optimizer state over its γ/β, flat in
	// BNParams() order — the same order as the second half of slab — so
	// it follows the stream across replicas.
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

// bnViews returns n per-layer views into a BN slab, layer j being
// width(j) channels wide. The slab's first half holds µ|σ² per layer in
// BatchNorms() order; its second half holds γ|β per layer in BNParams()
// order, so it lines up element for element with an nn.OptState over
// those parameters.
func bnViews(slab []float32, n int, width func(j int) int) []nn.BNSource {
	views := make([]nn.BNSource, n)
	stats, affine := slab[:len(slab)/2], slab[len(slab)/2:]
	for j := range views {
		c := width(j)
		views[j] = nn.BNSource{
			Mean: stats[:c:c], Var: stats[c : 2*c : 2*c],
			Gamma: affine[:c:c], Beta: affine[c : 2*c : 2*c],
		}
		stats, affine = stats[2*c:], affine[2*c:]
	}
	return views
}

// newBNSlab allocates a zeroed BN slab for layers bns and its views.
func newBNSlab(bns []*nn.BatchNorm2D) ([]float32, []nn.BNSource) {
	n := 0
	for _, b := range bns {
		n += 4 * b.C
	}
	slab := make([]float32, n)
	return slab, bnViews(slab, len(bns), func(j int) int { return bns[j].C })
}

// newStreamState snapshots the deployed model's BN state for one
// stream.
func newStreamState(m *ufld.Model) *streamState {
	bns := m.BatchNorms()
	st := &streamState{}
	st.slab, st.bn = newBNSlab(bns)
	st.captureFrom(bns)
	st.opt = nn.NewOptState(len(st.slab) / 2)
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
		slab:      append([]float32(nil), st.slab...),
		steps:     st.steps,
		baseSteps: st.steps,
		opt:       st.opt.Clone(),
		pending:   append([]ufld.Sample(nil), st.pending...),
	}
	cp.bn = bnViews(cp.slab, len(st.bn), func(j int) int { return len(st.bn[j].Mean) })
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
