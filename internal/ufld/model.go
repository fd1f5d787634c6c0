package ufld

import (
	"fmt"
	"strings"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
)

// Model is the UFLD detector: ResNet backbone → 1×1 reduction conv →
// flatten → hidden FC → output FC producing one logit per
// (lane, row anchor, cell) triple.
type Model struct {
	// Cfg is the detector configuration.
	Cfg Config
	net *nn.Sequential

	backbone *resnet.ResNet
	neckConv *nn.Conv2D
	neckBN   *nn.BatchNorm2D
	fc1, fc2 *nn.Linear
	pool     *nn.GlobalAvgPool // Embed's pooling, outside net
	lastN    int

	// Cached reshape headers (see nn.View): the logits-rows views
	// returned by the infer modes and by Train/Eval/Adapt forwards
	// (separate, because a serving replica alternates the two classes
	// at different batch sizes) and the gradient view consumed by
	// Backward.
	inferRows nn.View
	bpRows    nn.View
	gradView  nn.View
}

// NewModel builds a UFLD detector with weights drawn from rng.
func NewModel(cfg Config, rng *tensor.RNG) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	backbone := resnet.New(cfg.Backbone, rng)
	oh, ow := backbone.OutSpatial(cfg.InputH, cfg.InputW)
	neckConv := nn.NewConv2D("neck.conv", backbone.OutChannels(), cfg.NeckChannels,
		tensor.ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1}, false, rng)
	neckBN := nn.NewBatchNorm2D("neck.bn", cfg.NeckChannels)
	flatDim := cfg.NeckChannels * oh * ow
	fc1 := nn.NewLinear("head.fc1", flatDim, cfg.HiddenDim, rng)
	fc2 := nn.NewLinear("head.fc2", cfg.HiddenDim, cfg.Groups()*cfg.Classes(), rng)
	net := nn.NewSequential("ufld",
		backbone,
		neckConv,
		neckBN,
		nn.NewReLU("neck.relu"),
		nn.NewFlatten("head.flatten"),
		fc1,
		nn.NewReLU("head.relu"),
		fc2,
	)
	return &Model{Cfg: cfg, net: net, backbone: backbone,
		neckConv: neckConv, neckBN: neckBN, fc1: fc1, fc2: fc2,
		pool: nn.NewGlobalAvgPool("embed.pool")}, nil
}

// MustNewModel is NewModel that panics on configuration errors
// (convenient in examples and tests).
func MustNewModel(cfg Config, rng *tensor.RNG) *Model {
	m, err := NewModel(cfg, rng)
	if err != nil {
		panic(err)
	}
	return m
}

// Forward runs the detector on a batch [n, 3, H, W] and returns the
// classification logits as rows: shape [n·Lanes·RowAnchors, Classes].
// Row (ni, lane, anchor) lives at index (ni·Lanes+lane)·RowAnchors+anchor.
// The logits alias layer scratch: a Train/Eval/Adapt result is valid
// until the model's next Train/Eval/Adapt forward, an infer result
// until its next infer forward, so a caller that keeps one across a
// second forward of the same class must Clone it. A Train, Eval or
// Adapt forward keeps a reference to x, not a copy: the convolutions'
// weight gradients re-lower it in Backward, so x must stay unchanged
// until then.
func (m *Model) Forward(x *tensor.Tensor, mode nn.Mode) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(2) != m.Cfg.InputH || x.Dim(3) != m.Cfg.InputW {
		panic(fmt.Sprintf("ufld: input %v, want [n,3,%d,%d]", x.Shape(), m.Cfg.InputH, m.Cfg.InputW))
	}
	n := x.Dim(0)
	m.lastN = n
	out := m.net.Forward(x, mode) // [n, groups*classes]
	if mode.IsInfer() {
		return m.inferRows.Of(out.Data, n*m.Cfg.Groups(), m.Cfg.Classes())
	}
	return m.bpRows.Of(out.Data, n*m.Cfg.Groups(), m.Cfg.Classes())
}

// ForwardInfer is the serving fast path: numerically identical to
// Forward in Eval mode, but every layer skips its backward caches and
// writes the infer scratch, apart from the one a Train/Eval/Adapt
// forward writes, so it can interleave with an adaptation step without
// re-shaping either. The returned logits are only valid until the
// model's next infer forward; Backward after ForwardInfer panics. Combined with
// nn.BatchNorm2D.SetSampleSources this is the batched multi-stream
// entry point used by internal/serve.
func (m *Model) ForwardInfer(x *tensor.Tensor) *tensor.Tensor {
	return m.Forward(x, nn.Infer)
}

// ForwardInferInt8 is ForwardInfer with the Conv2D/Linear products in
// symmetric int8 (per-output-channel weight scales, one dynamic scale
// per sample): the governed accuracy/latency rung. BatchNorm, ReLU and
// pooling stay in float32 and per-sample BN sources are honoured, so
// this path drops into the batched serving loop unchanged. The first
// call quantizes the (frozen) weights once; call InvalidateWeightCaches
// after mutating weights. Output differs from ForwardInfer only by the
// quantization error bound documented in internal/tensor/README.md;
// batched and sequential InferInt8 forwards remain bitwise identical.
func (m *Model) ForwardInferInt8(x *tensor.Tensor) *tensor.Tensor {
	return m.Forward(x, nn.InferInt8)
}

// InvalidateWeightCaches drops every weight-derived cache — the int8
// tables and the frozen convolutions' transposed weights — so the next
// ForwardInferInt8 re-quantizes, and the next frozen-weight Backward
// re-transposes, from the current weights. Call it after writing conv
// or FC weights in place (an optimizer step on a trainable weight needs
// no call: a trainable conv keeps no transpose).
func (m *Model) InvalidateWeightCaches() { m.net.InvalidateWeightCaches() }

// Backward propagates a gradient with the same row layout Forward
// returns, for the last Train, Eval or Adapt Forward, whose input must
// not have changed since (a trainable conv weight's gradient re-reads
// it). It returns the input gradient, or nil when backprop stopped
// above the input because every parameter further down is frozen (see
// nn.Sequential.Backward).
func (m *Model) Backward(gradRows *tensor.Tensor) *tensor.Tensor {
	g := m.gradView.Of(gradRows.Data, m.lastN, m.Cfg.Groups()*m.Cfg.Classes())
	return m.net.Backward(g)
}

// Params returns every trainable parameter.
func (m *Model) Params() []*nn.Param { return m.net.Params() }

// BatchNorms returns every BN layer (backbone + neck).
func (m *Model) BatchNorms() []*nn.BatchNorm2D { return m.net.BatchNorms() }

// BNParams returns only the γ/β parameters of every BatchNorm layer —
// the parameter set LD-BN-ADAPT updates.
func (m *Model) BNParams() []*nn.Param {
	var out []*nn.Param
	for _, bn := range m.BatchNorms() {
		out = append(out, bn.Params()...)
	}
	return out
}

// ConvParams returns the convolution weights (the ablation's
// "convolutional adaptation" parameter set).
func (m *Model) ConvParams() []*nn.Param {
	return nn.FilterParams(m.Params(), func(p *nn.Param) bool {
		return strings.Contains(p.Name, "conv") && strings.HasSuffix(p.Name, ".weight")
	})
}

// FCParams returns the fully-connected head parameters (the ablation's
// "fully-connected adaptation" set).
func (m *Model) FCParams() []*nn.Param {
	return append(append([]*nn.Param{}, m.fc1.Params()...), m.fc2.Params()...)
}

// Backbone exposes the ResNet feature extractor (used by the CARLANE
// SOTA baseline to compute embeddings and by the performance model).
func (m *Model) Backbone() *resnet.ResNet { return m.backbone }

// Embed runs the backbone and global-average-pools the feature map
// into one embedding vector per sample: [n, OutChannels], in the pool's
// scratch until the next Embed. The SOTA baseline clusters these
// embeddings to encode the semantic structure of the source and target
// domains.
func (m *Model) Embed(x *tensor.Tensor, mode nn.Mode) *tensor.Tensor {
	return m.pool.Forward(m.backbone.Forward(x, mode), mode)
}

// EmbedBackward propagates a gradient of the last Train, Eval or Adapt
// Embed's output, [n, OutChannels], through the pooling and the
// backbone, and returns the input gradient (or nil, as Backward).
func (m *Model) EmbedBackward(dEmb *tensor.Tensor) *tensor.Tensor {
	return m.backbone.Backward(m.pool.Backward(dEmb))
}

// Clone returns a deep copy of the model (weights, BN running stats).
// The clone shares no storage with the original, so adapting one does
// not disturb the other.
func (m *Model) Clone(rng *tensor.RNG) *Model {
	c := MustNewModel(m.Cfg, rng)
	copyState(c, m)
	return c
}

// Replica returns a model that literally shares m's convolution and
// fully-connected weight tensors (read-only at serving time) while
// owning private BatchNorm parameters, running statistics, gradient
// accumulators and layer caches. The multi-stream serving engine gives
// each worker a replica: concurrent forward passes never race because
// all mutable per-pass state (caches, scratch, BN state) is
// per-replica, yet the heavy weights exist once in memory. Only the BN
// γ/β set may be updated on a replica (LD-BN-ADAPT's parameter set);
// mutating shared conv/FC weights would corrupt every replica.
func (m *Model) Replica(rng *tensor.RNG) *Model {
	c := MustNewModel(m.Cfg, rng)
	src, dst := m.Params(), c.Params()
	for i := range src {
		if !strings.HasSuffix(src[i].Name, ".gamma") && !strings.HasSuffix(src[i].Name, ".beta") {
			dst[i].Value = src[i].Value // alias the shared weights
		}
	}
	copyState(c, m)
	return c
}

// copyState copies src's parameter values, BN running statistics and
// BN momenta into dst, a model of the same configuration. A parameter
// dst already shares with src (a replica's aliased weight) is left as
// it is.
func copyState(dst, src *Model) {
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		if dp[i].Value != sp[i].Value {
			dp[i].Value.CopyFrom(sp[i].Value)
		}
	}
	sb, db := src.BatchNorms(), dst.BatchNorms()
	for i := range sb {
		db[i].SetRunningStats(sb[i].RunningMean, sb[i].RunningVar)
		db[i].Momentum = sb[i].Momentum
		db[i].AdaptMomentum = sb[i].AdaptMomentum
	}
}

// BNStateExtras bundles the BN running statistics under stable names
// for serialization alongside SaveParams.
func (m *Model) BNStateExtras() map[string]*tensor.Tensor {
	extras := make(map[string]*tensor.Tensor)
	for _, bn := range m.BatchNorms() {
		extras[bn.Name()+".running_mean"] = bn.RunningMean
		extras[bn.Name()+".running_var"] = bn.RunningVar
	}
	return extras
}

// ApplyBNStateExtras restores running statistics saved with
// BNStateExtras. Unknown entries are ignored; missing entries are an
// error.
func (m *Model) ApplyBNStateExtras(extras map[string]*tensor.Tensor) error {
	for _, bn := range m.BatchNorms() {
		mean, ok1 := extras[bn.Name()+".running_mean"]
		varc, ok2 := extras[bn.Name()+".running_var"]
		if !ok1 || !ok2 {
			return fmt.Errorf("ufld: missing running stats for %s", bn.Name())
		}
		bn.SetRunningStats(mean, varc)
	}
	return nil
}
