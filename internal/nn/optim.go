package nn

import (
	"fmt"
	"math"

	"ldbnadapt/internal/tensor"
)

// Optimizer is an update rule: Step applies one update to every
// parameter from its accumulated gradient and advances the state the
// caller owns (see OptState). Gradients are left untouched (callers
// clear them with ZeroGrads).
type Optimizer interface {
	Step(params []*Param, s *OptState)
}

// OptState is an optimizer's state, owned by the caller and laid out
// flat over the params slice it is stepped with: element i of params[k]
// lives at offset ParamCount(params[:k]) + i. It holds no pointer to a
// Param, so it can be copied, checkpointed, or stepped over another
// model's params with the same sizes in the same order (a served
// stream's state follows it across worker replicas). Step panics,
// naming both sizes, when the params' total size differs from the
// state's.
type OptState struct {
	// Step counts the updates applied (Adam's bias correction reads it).
	Step int
	// M is Adam's first moment, or SGD's velocity. V is Adam's second
	// moment; SGD leaves it zero.
	M, V []float32
}

// NewOptState returns zero state for n parameter values.
func NewOptState(n int) OptState {
	return OptState{M: make([]float32, n), V: make([]float32, n)}
}

// Clone returns a deep copy of s.
func (s OptState) Clone() OptState {
	return OptState{Step: s.Step, M: append([]float32(nil), s.M...), V: append([]float32(nil), s.V...)}
}

// check panics unless s is laid out over exactly params.
func (s *OptState) check(params []*Param) {
	if n := ParamCount(params); n != len(s.M) || n != len(s.V) {
		panic(fmt.Sprintf("nn: optimizer state holds %d values, params hold %d", len(s.M), n))
	}
}

// SGD is stochastic gradient descent with classical momentum and
// decoupled L2 weight decay.
type SGD struct {
	// LR is the learning rate.
	LR float64
	// Momentum in [0,1); 0 disables the velocity term.
	Momentum float64
	// WeightDecay is the L2 coefficient applied to the parameter value.
	WeightDecay float64
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies v ← µv + (g + λw); w ← w − lr·v per parameter, with the
// velocity v in s.M.
func (o *SGD) Step(params []*Param, s *OptState) {
	s.check(params)
	s.Step++
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	off := 0
	for _, p := range params {
		v := s.M[off : off+len(p.Value.Data)]
		for i := range p.Value.Data {
			g := p.Grad.Data[i] + wd*p.Value.Data[i]
			v[i] = mu*v[i] + g
			p.Value.Data[i] -= lr * v[i]
		}
		off += len(v)
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	// LR is the learning rate.
	LR float64
	// Beta1, Beta2 are the first/second moment decay rates.
	Beta1, Beta2 float64
	// Eps stabilizes the denominator.
	Eps float64
	// WeightDecay is the L2 coefficient.
	WeightDecay float64
}

// NewAdam constructs an Adam optimizer with standard β parameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter, with the moments in
// s.M and s.V.
func (a *Adam) Step(params []*Param, s *OptState) {
	s.check(params)
	s.Step++
	bc1 := 1 - math.Pow(a.Beta1, float64(s.Step))
	bc2 := 1 - math.Pow(a.Beta2, float64(s.Step))
	b1 := float32(a.Beta1)
	b2 := float32(a.Beta2)
	wd := float32(a.WeightDecay)
	off := 0
	for _, p := range params {
		m := s.M[off : off+len(p.Value.Data)]
		v := s.V[off : off+len(p.Value.Data)]
		for i := range p.Value.Data {
			g := p.Grad.Data[i] + wd*p.Value.Data[i]
			m[i] = b1*m[i] + (1-b1)*g
			v[i] = b2*v[i] + (1-b2)*g*g
			mh := float64(m[i]) / bc1
			vh := float64(v[i]) / bc2
			p.Value.Data[i] -= float32(a.LR * mh / (math.Sqrt(vh) + a.Eps))
		}
		off += len(m)
	}
}

// ClipGradNorm rescales gradients so their global L2 norm does not
// exceed maxNorm. Returns the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		n := p.Grad.Norm2()
		total += n * n
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return norm
}
