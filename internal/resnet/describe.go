package resnet

// This file contains the analytic cost model of the backbone: layer
// shapes, FLOPs, parameter and byte counts computed *without*
// allocating weights. The Orin performance model uses it to price the
// full-scale (288×800, width-64) architecture, which is never actually
// executed on the CPU.

// LayerCost describes the cost of one layer at a given input geometry.
type LayerCost struct {
	// Name identifies the layer ("layer3.block1.conv2", ...).
	Name string
	// Kind is "conv", "bn", "relu", "pool" or "linear".
	Kind string
	// FLOPs is the forward floating-point operation count (one sample).
	FLOPs int64
	// Params is the trainable parameter count.
	Params int64
	// BNParams is the γ/β subset of Params (non-zero only for BN).
	BNParams int64
	// ActBytes is the size of the layer's output activation in bytes.
	ActBytes int64
	// WeightBytes is the size of the layer's weights in bytes.
	WeightBytes int64
	// OutC, OutH, OutW give the output geometry.
	OutC, OutH, OutW int
}

// ModelCost aggregates the per-layer costs of a network.
type ModelCost struct {
	// Layers lists every layer in forward order.
	Layers []LayerCost
	// OutC, OutH, OutW give the final feature-map geometry.
	OutC, OutH, OutW int
}

// TotalFLOPs sums forward FLOPs over all layers (one sample).
func (m ModelCost) TotalFLOPs() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.FLOPs
	}
	return s
}

// TotalParams sums trainable parameters.
func (m ModelCost) TotalParams() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.Params
	}
	return s
}

// TotalBNParams sums BatchNorm γ/β parameters. The paper's key
// observation — BN parameters are ≈1 % of the model — is checked
// against this number in the tests.
func (m ModelCost) TotalBNParams() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.BNParams
	}
	return s
}

// convCost prices a conv layer.
func convCost(name string, inC, outC, kh, kw, stride, h, w int) (LayerCost, int, int) {
	oh := (h + 2*(kh/2) - kh) / stride // symmetric same-style padding kh/2
	oh++
	ow := (w+2*(kw/2)-kw)/stride + 1
	params := int64(outC) * int64(inC) * int64(kh) * int64(kw)
	return LayerCost{
		Name: name, Kind: "conv",
		FLOPs:       2 * int64(outC) * int64(oh) * int64(ow) * int64(inC) * int64(kh) * int64(kw),
		Params:      params,
		ActBytes:    4 * int64(outC) * int64(oh) * int64(ow),
		WeightBytes: 4 * params,
		OutC:        outC, OutH: oh, OutW: ow,
	}, oh, ow
}

// bnCost prices a BatchNorm layer (per-element normalize+affine ≈ 4
// FLOPs, plus the statistics reductions ≈ 4 more in adapt mode; we
// charge the inference cost here and let the Orin model scale the
// adaptation phase).
func bnCost(name string, c, h, w int) LayerCost {
	params := int64(2 * c)
	return LayerCost{
		Name: name, Kind: "bn",
		FLOPs:       4 * int64(c) * int64(h) * int64(w),
		Params:      params,
		BNParams:    params,
		ActBytes:    4 * int64(c) * int64(h) * int64(w),
		WeightBytes: 4 * params,
		OutC:        c, OutH: h, OutW: w,
	}
}

// reluCost prices a ReLU layer.
func reluCost(name string, c, h, w int) LayerCost {
	return LayerCost{
		Name: name, Kind: "relu",
		FLOPs:    int64(c) * int64(h) * int64(w),
		ActBytes: 4 * int64(c) * int64(h) * int64(w),
		OutC:     c, OutH: h, OutW: w,
	}
}

// Describe prices a backbone per cfg on an h×w input, without building
// it. The layer list matches New's construction exactly.
func Describe(cfg Config, h, w int) ModelCost {
	var m ModelCost
	// Stem.
	lc, oh, ow := convCost("stem.conv", cfg.InChannels, cfg.BaseWidth, 3, 3, cfg.StemStride, h, w)
	m.Layers = append(m.Layers, lc)
	m.Layers = append(m.Layers, bnCost("stem.bn", cfg.BaseWidth, oh, ow))
	m.Layers = append(m.Layers, reluCost("stem.relu", cfg.BaseWidth, oh, ow))
	if cfg.StemPool {
		ph := (oh+2*1-3)/2 + 1
		pw := (ow+2*1-3)/2 + 1
		m.Layers = append(m.Layers, LayerCost{
			Name: "stem.pool", Kind: "pool",
			FLOPs:    9 * int64(cfg.BaseWidth) * int64(ph) * int64(pw),
			ActBytes: 4 * int64(cfg.BaseWidth) * int64(ph) * int64(pw),
			OutC:     cfg.BaseWidth, OutH: ph, OutW: pw,
		})
		oh, ow = ph, pw
	}
	inC := cfg.BaseWidth
	blocks := cfg.Variant.Blocks()
	for stage := 0; stage < 4; stage++ {
		outC := cfg.BaseWidth << stage
		for blk := 0; blk < blocks[stage]; blk++ {
			stride := 1
			if blk == 0 && stage > 0 {
				stride = 2
			}
			prefix := blockName(stage, blk)
			lc1, bh, bw := convCost(prefix+".conv1", inC, outC, 3, 3, stride, oh, ow)
			m.Layers = append(m.Layers, lc1,
				bnCost(prefix+".bn1", outC, bh, bw),
				reluCost(prefix+".relu1", outC, bh, bw))
			lc2, bh2, bw2 := convCost(prefix+".conv2", outC, outC, 3, 3, 1, bh, bw)
			m.Layers = append(m.Layers, lc2, bnCost(prefix+".bn2", outC, bh2, bw2))
			if stride != 1 || inC != outC {
				lcd, _, _ := convCost(prefix+".ds.conv", inC, outC, 1, 1, stride, oh, ow)
				m.Layers = append(m.Layers, lcd, bnCost(prefix+".ds.bn", outC, bh2, bw2))
			}
			m.Layers = append(m.Layers, reluCost(prefix+".relu2", outC, bh2, bw2))
			oh, ow, inC = bh2, bw2, outC
		}
	}
	m.OutC, m.OutH, m.OutW = inC, oh, ow
	return m
}

func blockName(stage, blk int) string {
	return "layer" + string(rune('1'+stage)) + ".block" + string(rune('0'+blk))
}
