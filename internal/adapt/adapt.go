// Package adapt implements the paper's contribution, LD-BN-ADAPT:
// real-time, fully unsupervised, on-device adaptation of a deployed
// UFLD lane detector. After inference on each incoming batch of
// unlabeled target frames, the batch-normalization statistics are
// recomputed from the batch and a single backpropagation pass of the
// prediction-entropy loss updates only the BN scale/shift parameters
// (γ, β) — ≈1 % of the model. The package also provides the ablation
// variants the paper mentions (convolutional-only and FC-only
// adaptation) and a no-op baseline.
//
// There is one adaptation step, Step.Run: every Method here and the
// serving engine's per-stream step (internal/serve) run it. A Step
// freezes every parameter outside its own set when it is built, so the
// backward pass computes only the gradients the optimizer will read
// (see internal/nn/README.md, "Frozen parameters").
package adapt

import (
	"fmt"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// LossKind selects the unsupervised objective.
type LossKind int

const (
	// Entropy is the Shannon prediction entropy (the paper's loss).
	Entropy LossKind = iota
	// Confidence is the negative max-probability alternative used by
	// the loss ablation.
	Confidence
)

// String names the loss.
func (k LossKind) String() string {
	if k == Confidence {
		return "confidence"
	}
	return "entropy"
}

// Method is an online, fully unsupervised adaptation algorithm: Adapt
// consumes one batch of unlabeled target images and updates the model
// in place.
type Method interface {
	// Name identifies the method in reports.
	Name() string
	// Adapt performs one adaptation step on the batch [n,3,H,W].
	Adapt(batch *tensor.Tensor)
	// Steps reports how many adaptation steps have run.
	Steps() int
}

// LossReporter is implemented by the entropy-based methods, which can
// report the unsupervised loss of their most recent Adapt call. ok is
// false when the last step computed no loss (no step yet, or a warmup
// step that skipped its forward).
type LossReporter interface {
	LastStepLoss() (loss float64, ok bool)
}

// Config parameterizes the entropy-minimization methods.
type Config struct {
	// LR is the adaptation learning rate.
	LR float64
	// Momentum is the SGD momentum (ignored when UseAdam is set).
	Momentum float64
	// UseAdam selects Adam instead of SGD for the γ/β update — the
	// adaptive step sizes make single-frame (bs=1) adaptation robust
	// to the noisy entropy gradients of early, badly-shifted frames.
	UseAdam bool
	// WarmupSteps delays the γ/β updates for the first N adaptation
	// steps: the BN statistics (which need no gradients) settle into
	// the target domain before entropy optimization starts.
	WarmupSteps int
	// Loss selects the unsupervised objective.
	Loss LossKind
	// ClipNorm bounds the gradient norm per step (0 disables).
	ClipNorm float64
}

// DefaultConfig returns the settings used for LD-BN-ADAPT in the
// reproduction experiments.
func DefaultConfig() Config {
	return Config{LR: 3e-3, UseAdam: true, WarmupSteps: 4, Loss: Entropy, ClipNorm: 10}
}

// NewOptimizer builds the configured update rule — the one constructor
// behind every adaptation step, the serving engine's included (Adam, or
// SGD with cfg.Momentum; no weight decay). The state it steps is the
// caller's nn.OptState.
func NewOptimizer(cfg Config) nn.Optimizer {
	if cfg.UseAdam {
		return nn.NewAdam(cfg.LR)
	}
	return nn.NewSGD(cfg.LR, cfg.Momentum, 0)
}

// Step is the adaptation step every method shares: zero the stepped
// gradients, forward under the method's mode, unsupervised loss,
// warm-up gate, one backward pass, clip, one optimizer update — all
// restricted to one parameter set of one model. It owns the update
// rule and the loss scratch, so a steady-state Run allocates nothing;
// the optimizer state belongs to the caller.
type Step struct {
	model  *ufld.Model
	params []*nn.Param
	cfg    Config
	opt    nn.Optimizer
	loss   nn.LossScratch
}

// NewStep wires a step to the params of m it will update, marking
// exactly those trainable and every other parameter of m frozen: the
// layers then skip the gradients nobody steps and backprop stops below
// the lowest trainable layer. It allocates the stepped params'
// gradients now, so no Run has to; the frozen ones get none. One model
// carries one Step at a time —
// building a second re-draws the freeze, and the displaced Step's Run
// panics rather than silently stepping nothing.
func NewStep(m *ufld.Model, params []*nn.Param, cfg Config) *Step {
	nn.SetTrainable(m.Params(), params)
	for _, p := range params {
		p.EnsureGrad()
	}
	return &Step{model: m, params: params, cfg: cfg, opt: NewOptimizer(cfg)}
}

// NewState returns zero optimizer state laid out over the step's params.
func (s *Step) NewState() nn.OptState { return nn.NewOptState(nn.ParamCount(s.params)) }

// Run performs one step on the batch x [n,3,H,W] and returns the loss.
// step is the caller's count of steps already taken: while it is below
// cfg.WarmupSteps the parameter update is skipped (in Adapt mode the
// forward still refreshes BN statistics, which is the point of the
// warmup). opt is the caller's optimizer state, flat over the step's
// params in order (see nn.OptState): the update advances it in place,
// and it may outlive the model the step runs on — a served stream's
// state follows it across worker replicas, whose BN params have the
// same layout. The update panics if opt is sized for other params.
func (s *Step) Run(x *tensor.Tensor, mode nn.Mode, opt *nn.OptState, step int) float64 {
	for _, p := range s.params {
		if p.Frozen {
			panic(fmt.Sprintf("adapt: %s is frozen: another Step was built on this model", p.Name))
		}
	}
	nn.ZeroGrads(s.params)
	logits := s.model.Forward(x, mode)
	var loss float64
	var grad *tensor.Tensor
	switch s.cfg.Loss {
	case Confidence:
		loss, grad = nn.ConfidenceLossInto(&s.loss, logits)
	default:
		loss, grad = nn.EntropyLossInto(&s.loss, logits)
	}
	if step < s.cfg.WarmupSteps {
		return loss
	}
	s.model.Backward(grad)
	if s.cfg.ClipNorm > 0 {
		nn.ClipGradNorm(s.params, s.cfg.ClipNorm)
	}
	s.opt.Step(s.params, opt)
	return loss
}

// LDBNAdapt is the paper's method. Each Adapt call:
//
//  1. normalization statistics (µ, σ) of every BN layer are recomputed
//     from the unlabeled batch (nn.Adapt forward mode), refreshing the
//     running statistics used at inference, and
//  2. one backpropagation pass of the entropy loss updates only the BN
//     scale and shift parameters (γ, β).
type LDBNAdapt struct {
	step  *Step
	opt   nn.OptState
	steps int
	// LastLoss is the unsupervised loss of the most recent step.
	LastLoss float64
}

// NewLDBNAdapt wires the method to a deployed model.
func NewLDBNAdapt(m *ufld.Model, cfg Config) *LDBNAdapt {
	s := NewStep(m, m.BNParams(), cfg)
	return &LDBNAdapt{step: s, opt: s.NewState()}
}

// Name returns the paper's name for the method.
func (a *LDBNAdapt) Name() string { return "LD-BN-ADAPT" }

// Steps reports adaptation steps taken.
func (a *LDBNAdapt) Steps() int { return a.steps }

// AdaptedParamCount returns the number of scalars the method updates.
func (a *LDBNAdapt) AdaptedParamCount() int { return nn.ParamCount(a.step.params) }

// Adapt performs one LD-BN-ADAPT step on an unlabeled batch.
func (a *LDBNAdapt) Adapt(batch *tensor.Tensor) {
	a.LastLoss = a.step.Run(batch, nn.Adapt, &a.opt, a.steps)
	a.steps++
}

// LastStepLoss reports the most recent step's unsupervised loss. Every
// LD-BN-ADAPT step computes one (warmup forwards still run, to refresh
// the BN statistics), so it is valid as soon as one step has run.
func (a *LDBNAdapt) LastStepLoss() (float64, bool) { return a.LastLoss, a.steps > 0 }

// weightAdapt is the body the two weight ablations share: entropy
// steps in Eval mode (BN statistics stay at their source values) on a
// fixed parameter set. Warmup steps consume their batch without running
// the model at all: unlike LD-BN-ADAPT, whose warmup forwards refresh
// the BN statistics, an Eval-mode warmup forward would compute nothing
// that is kept. Updates still begin only after WarmupSteps batches,
// keeping step counts comparable across methods.
type weightAdapt struct {
	step     *Step
	opt      nn.OptState
	steps    int
	lastLoss float64
	hasLoss  bool
}

func newWeightAdapt(m *ufld.Model, params []*nn.Param, cfg Config) weightAdapt {
	s := NewStep(m, params, cfg)
	return weightAdapt{step: s, opt: s.NewState()}
}

// Steps reports adaptation steps taken.
func (a *weightAdapt) Steps() int { return a.steps }

// LastStepLoss reports the most recent step's loss (invalid during
// warmup, whose forwards are skipped).
func (a *weightAdapt) LastStepLoss() (float64, bool) { return a.lastLoss, a.hasLoss }

// Adapt performs one entropy step on the method's parameter set. The
// step writes conv or FC weights in place, so it drops the model's
// weight-derived caches: the next int8 forward re-quantizes them.
func (a *weightAdapt) Adapt(batch *tensor.Tensor) {
	a.hasLoss = a.steps >= a.step.cfg.WarmupSteps
	if a.hasLoss {
		a.lastLoss = a.step.Run(batch, nn.Eval, &a.opt, a.steps)
		a.step.model.InvalidateWeightCaches()
	}
	a.steps++
}

// ConvAdapt is the paper's ablation: entropy adaptation of the
// convolution weights only.
type ConvAdapt struct{ weightAdapt }

// NewConvAdapt wires the ablation to a model.
func NewConvAdapt(m *ufld.Model, cfg Config) *ConvAdapt {
	return &ConvAdapt{newWeightAdapt(m, m.ConvParams(), cfg)}
}

// Name identifies the ablation.
func (a *ConvAdapt) Name() string { return "CONV-ADAPT" }

// FCAdapt is the paper's ablation: entropy adaptation of the
// fully-connected head only.
type FCAdapt struct{ weightAdapt }

// NewFCAdapt wires the ablation to a model.
func NewFCAdapt(m *ufld.Model, cfg Config) *FCAdapt {
	return &FCAdapt{newWeightAdapt(m, m.FCParams(), cfg)}
}

// Name identifies the ablation.
func (a *FCAdapt) Name() string { return "FC-ADAPT" }

// NoAdapt is the "UFLD no adaptation" baseline of Fig. 2.
type NoAdapt struct{ steps int }

// NewNoAdapt returns the no-op baseline.
func NewNoAdapt() *NoAdapt { return &NoAdapt{} }

// Name identifies the baseline.
func (a *NoAdapt) Name() string { return "NoAdapt" }

// Steps reports 0-cost steps (counted for interface symmetry).
func (a *NoAdapt) Steps() int { return a.steps }

// Adapt does nothing.
func (a *NoAdapt) Adapt(*tensor.Tensor) { a.steps++ }

// statically assert the Method implementations.
var (
	_ Method = (*LDBNAdapt)(nil)
	_ Method = (*ConvAdapt)(nil)
	_ Method = (*FCAdapt)(nil)
	_ Method = (*NoAdapt)(nil)

	_ LossReporter = (*LDBNAdapt)(nil)
	_ LossReporter = (*ConvAdapt)(nil)
	_ LossReporter = (*FCAdapt)(nil)
)

// OnlineResult summarizes an online adaptation run over a target
// stream.
type OnlineResult struct {
	// MethodName records the method.
	MethodName string
	// BatchSize is the adaptation batch size (paper: 1, 2 or 4).
	BatchSize int
	// OnlineAccuracy is the accuracy of the predictions made on each
	// frame *before* the adaptation step that consumed it (the
	// paper's deployment order: inference, then adaptation).
	OnlineAccuracy float64
	// FinalAccuracy is the post-run accuracy on a held-out labeled
	// target validation set (the Fig. 2 number).
	FinalAccuracy float64
	// MeanLoss is the mean unsupervised loss over adaptation steps.
	MeanLoss float64
	// Frames is the number of stream frames processed.
	Frames int
}

// RunOnline drives a method over the unlabeled target stream in
// batches of size bs — inference first, adaptation second, updated
// model used for the next batch — then evaluates on the labeled
// validation split.
func RunOnline(m *ufld.Model, method Method, stream *ufld.Dataset, val *ufld.Dataset, bs int) OnlineResult {
	if bs < 1 {
		panic(fmt.Sprintf("adapt: batch size %d", bs))
	}
	res := OnlineResult{MethodName: method.Name(), BatchSize: bs}
	n := stream.Len()
	pointsTotal := 0
	accW := 0.0
	lossSum, lossSteps := 0.0, 0
	idx := make([]int, 0, bs)
	var dec ufld.Decoder
	for lo := 0; lo < n; lo += bs {
		hi := lo + bs
		if hi > n {
			hi = n
		}
		idx = idx[:0]
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		x := ufld.Images(m.Cfg, stream.Samples, idx)
		// Phase 1: inference with the current model.
		logits := m.ForwardInfer(x)
		preds := dec.Decode(m.Cfg, logits, len(idx))
		cnt := 0
		for _, si := range idx {
			cnt += stream.Samples[si].Points()
		}
		accW += ufld.Accuracy(m.Cfg, preds, stream.Samples, idx) * float64(cnt)
		pointsTotal += cnt
		// Phase 2: adaptation on the same unlabeled batch.
		method.Adapt(x)
		if lr, ok := method.(LossReporter); ok {
			if loss, valid := lr.LastStepLoss(); valid {
				lossSum += loss
				lossSteps++
			}
		}
		res.Frames += len(idx)
	}
	if pointsTotal > 0 {
		res.OnlineAccuracy = accW / float64(pointsTotal)
	}
	if val != nil {
		res.FinalAccuracy = ufld.Evaluate(m, val, 8).Accuracy
	}
	if lossSteps > 0 {
		res.MeanLoss = lossSum / float64(lossSteps)
	}
	return res
}
