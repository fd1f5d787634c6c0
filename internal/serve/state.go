package serve

import (
	"math"
	"sync"

	"ldbnadapt/internal/adapt"
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
	// opt is the stream's private optimizer over the flattened γ/β
	// vector (state keyed by offset, not parameter pointer, so it
	// follows the stream across replicas).
	opt *bnOpt
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
func newStreamState(m *ufld.Model, cfg adapt.Config) *streamState {
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
	st.opt = newBNOpt(cfg, flat)
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
		opt: &bnOpt{
			cfg:  st.opt.cfg,
			step: st.opt.step,
			m:    append([]float32(nil), st.opt.m...),
			v:    append([]float32(nil), st.opt.v...),
		},
		pending: append([]ufld.Sample(nil), st.pending...),
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

// bnOpt is a per-stream optimizer over the flattened γ/β vector. It
// mirrors nn.Adam / nn.SGD but keys its moments by flat offset instead
// of *nn.Param, so a stream's optimizer state is portable across the
// worker replicas that execute its adaptation steps. It is the
// nn.Optimizer the shared adapt.Step runs with on the serving path.
type bnOpt struct {
	cfg  adapt.Config
	step int
	m, v []float32 // Adam moments, or m as SGD velocity
}

// newBNOpt allocates optimizer state for flat parameters.
func newBNOpt(cfg adapt.Config, flat int) *bnOpt {
	return &bnOpt{cfg: cfg, m: make([]float32, flat), v: make([]float32, flat)}
}

// Step performs one update on the replica's BN params from their
// accumulated gradients, advancing the stream's moments. The params
// must be the replica's BNParams() in model order, matching the flat
// layout the moments were allocated for.
func (o *bnOpt) Step(params []*nn.Param) {
	o.step++
	if o.cfg.UseAdam {
		const beta1, beta2, eps = 0.9, 0.999, 1e-8
		bc1 := 1 - math.Pow(beta1, float64(o.step))
		bc2 := 1 - math.Pow(beta2, float64(o.step))
		i := 0
		for _, p := range params {
			for j := range p.Value.Data {
				g := p.Grad.Data[j]
				o.m[i] = beta1*o.m[i] + (1-beta1)*g
				o.v[i] = beta2*o.v[i] + (1-beta2)*g*g
				mh := float64(o.m[i]) / bc1
				vh := float64(o.v[i]) / bc2
				p.Value.Data[j] -= float32(o.cfg.LR * mh / (math.Sqrt(vh) + eps))
				i++
			}
		}
		return
	}
	lr := float32(o.cfg.LR)
	mu := float32(o.cfg.Momentum)
	i := 0
	for _, p := range params {
		for j := range p.Value.Data {
			o.m[i] = mu*o.m[i] + p.Grad.Data[j]
			p.Value.Data[j] -= lr * o.m[i]
			i++
		}
	}
}
