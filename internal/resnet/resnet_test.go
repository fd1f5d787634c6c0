package resnet

import (
	"math"
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
)

func TestVariantBlocks(t *testing.T) {
	if R18.Blocks() != [4]int{2, 2, 2, 2} {
		t.Fatal("R18 layout wrong")
	}
	if R34.Blocks() != [4]int{3, 4, 6, 3} {
		t.Fatal("R34 layout wrong")
	}
	if R18.String() != "R-18" || R34.String() != "R-34" {
		t.Fatal("variant names wrong")
	}
}

func TestForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := New(Repro(R18), rng)
	x := tensor.New(2, 3, 32, 80)
	y := net.Forward(x, nn.Eval)
	oh, ow := net.OutSpatial(32, 80)
	if y.Dim(0) != 2 || y.Dim(1) != net.OutChannels() || y.Dim(2) != oh || y.Dim(3) != ow {
		t.Fatalf("output %v, want [2,%d,%d,%d]", y.Shape(), net.OutChannels(), oh, ow)
	}
	if oh != 4 || ow != 10 {
		t.Fatalf("OutSpatial = %d,%d, want 4,10 for 32x80 repro stem", oh, ow)
	}
}

func TestFullScaleStemGeometry(t *testing.T) {
	// Full-scale stem (stride 2 + pool) plus three stride-2 stages gives
	// a /32 reduction — the canonical ResNet downsampling.
	rng := tensor.NewRNG(2)
	cfg := FullScale(R18)
	cfg.BaseWidth = 4 // keep the test cheap; geometry is width-independent
	net := New(cfg, rng)
	oh, ow := net.OutSpatial(64, 128)
	if oh != 2 || ow != 4 {
		t.Fatalf("OutSpatial = %d,%d, want 2,4", oh, ow)
	}
	y := net.Forward(tensor.New(1, 3, 64, 128), nn.Eval)
	if y.Dim(2) != oh || y.Dim(3) != ow {
		t.Fatalf("forward %v disagrees with OutSpatial %d,%d", y.Shape(), oh, ow)
	}
}

func TestR34HasMoreParamsThanR18(t *testing.T) {
	rng := tensor.NewRNG(3)
	p18 := nn.ParamCount(New(Repro(R18), rng).Params())
	p34 := nn.ParamCount(New(Repro(R34), rng).Params())
	if p34 <= p18 {
		t.Fatalf("R34 params %d should exceed R18 %d", p34, p18)
	}
}

func TestBasicBlockIdentityShortcut(t *testing.T) {
	rng := tensor.NewRNG(4)
	blk := NewBasicBlock("b", 4, 4, 1, rng)
	if blk.dsConv != nil {
		t.Fatal("same-shape block must not have a downsample path")
	}
	blk2 := NewBasicBlock("b2", 4, 8, 2, rng)
	if blk2.dsConv == nil {
		t.Fatal("stride-2 block must have a downsample path")
	}
	if len(blk.BatchNorms()) != 2 || len(blk2.BatchNorms()) != 3 {
		t.Fatal("BatchNorms count wrong")
	}
}

func TestBasicBlockGradient(t *testing.T) {
	rng := tensor.NewRNG(5)
	blk := NewBasicBlock("b", 3, 6, 2, rng)
	x := tensor.New(2, 3, 6, 8)
	rng.FillNormal(x, 0, 1)

	w := tensor.New(2, 6, 3, 4)
	rng.FillUniform(w, -1, 1)
	loss := func() float64 {
		return tensor.Dot(blk.Forward(x, nn.Eval), w)
	}
	nn.ZeroGrads(blk.Params())
	y := blk.Forward(x, nn.Eval)
	if y.Dim(1) != 6 || y.Dim(2) != 3 || y.Dim(3) != 4 {
		t.Fatalf("block output %v", y.Shape())
	}
	dx := blk.Backward(w)
	// Check input gradient at a few coordinates by central differences.
	eps := float32(1e-2)
	for _, i := range []int{0, 17, 100, x.Size() - 1} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * float64(eps))
		if math.Abs(num-float64(dx.Data[i])) > 2e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("input grad mismatch at %d: analytic %v numeric %v", i, dx.Data[i], num)
		}
	}
	// Check one conv weight and one BN gamma gradient.
	for _, p := range []*nn.Param{blk.conv1.Weight, blk.bn2.Gamma} {
		idx := 0
		orig := p.Value.Data[idx]
		p.Value.Data[idx] = orig + eps
		lp := loss()
		p.Value.Data[idx] = orig - eps
		lm := loss()
		p.Value.Data[idx] = orig
		num := (lp - lm) / (2 * float64(eps))
		if math.Abs(num-float64(p.Grad.Data[idx])) > 3e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s grad mismatch: analytic %v numeric %v", p.Name, p.Grad.Data[idx], num)
		}
	}
}

func TestBackboneBNDiscovery(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := New(Repro(R18), rng)
	bns := net.BatchNorms()
	// Stem BN + 8 blocks × 2 + 3 downsample BNs = 20.
	if len(bns) != 20 {
		t.Fatalf("R18 BN count = %d, want 20", len(bns))
	}
	net34 := New(Repro(R34), rng)
	// Stem + 16 blocks × 2 + 3 downsample = 36.
	if got := len(net34.BatchNorms()); got != 36 {
		t.Fatalf("R34 BN count = %d, want 36", got)
	}
}

func TestDescribeMatchesBuiltModel(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, v := range []Variant{R18, R34} {
		cfg := Repro(v)
		net := New(cfg, rng)
		cost := Describe(cfg, 32, 80)
		if got, want := cost.TotalParams(), int64(nn.ParamCount(net.Params())); got != want {
			t.Fatalf("%v: Describe params %d, built model %d", v, got, want)
		}
		var bnWant int64
		for _, bn := range net.BatchNorms() {
			bnWant += int64(bn.C * 2)
		}
		if got := cost.TotalBNParams(); got != bnWant {
			t.Fatalf("%v: Describe BN params %d, built model %d", v, got, bnWant)
		}
		oh, ow := net.OutSpatial(32, 80)
		if cost.OutH != oh || cost.OutW != ow || cost.OutC != net.OutChannels() {
			t.Fatalf("%v: Describe geometry %dx%dx%d, model %dx%dx%d",
				v, cost.OutC, cost.OutH, cost.OutW, net.OutChannels(), oh, ow)
		}
	}
}

func TestBNParamsAreAboutOnePercentFullScale(t *testing.T) {
	// The paper's motivation: "BN parameters typically only comprise of
	// 1% of the total model parameters".
	for _, v := range []Variant{R18, R34} {
		cost := Describe(FullScale(v), 288, 800)
		frac := float64(cost.TotalBNParams()) / float64(cost.TotalParams())
		if frac <= 0 || frac > 0.02 {
			t.Fatalf("%v: BN fraction %.4f, want ≤ 2%%", v, frac)
		}
	}
}

func TestFullScaleFLOPsOrdering(t *testing.T) {
	f18 := Describe(FullScale(R18), 288, 800).TotalFLOPs()
	f34 := Describe(FullScale(R34), 288, 800).TotalFLOPs()
	if f34 <= f18 {
		t.Fatalf("R34 FLOPs %d must exceed R18 %d", f34, f18)
	}
	// Sanity: R18 at 288×800 should be within a factor of two of the
	// canonical ~8.3 GFLOPs estimate (1.8 GFLOPs at 224² scaled by area).
	if f18 < 4e9 || f18 > 16e9 {
		t.Fatalf("R18 FLOPs %v outside plausible band", f18)
	}
}

func TestDescribeFLOPsScaleWithInput(t *testing.T) {
	small := Describe(Repro(R18), 32, 80).TotalFLOPs()
	big := Describe(Repro(R18), 64, 160).TotalFLOPs()
	ratio := float64(big) / float64(small)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4× area should be ≈4× FLOPs, got %.2f", ratio)
	}
}

func TestTrainReducesLossOnToyTask(t *testing.T) {
	// A 2-class classification on the backbone + GAP + linear head must
	// overfit 8 samples quickly — an end-to-end smoke test of the whole
	// backward path.
	rng := tensor.NewRNG(8)
	cfg := Config{Variant: R18, InChannels: 1, BaseWidth: 4, StemStride: 1}
	net := New(cfg, rng)
	gap := nn.NewGlobalAvgPool("gap")
	head := nn.NewLinear("head", net.OutChannels(), 2, rng)
	params := append(net.Params(), head.Params()...)
	opt, st := nn.NewSGD(0.05, 0.9, 0), nn.NewOptState(nn.ParamCount(params))

	x := tensor.New(8, 1, 16, 16)
	targets := make([]int, 8)
	for i := 0; i < 8; i++ {
		cls := i % 2
		targets[i] = cls
		img := x.Data[i*256 : (i+1)*256]
		for j := range img {
			v := rng.Normal(0, 0.3)
			if cls == 1 {
				v += float64(j%16) / 8.0 // horizontal gradient for class 1
			}
			img[j] = float32(v)
		}
	}
	forward := func(mode nn.Mode) *tensor.Tensor {
		return head.Forward(gap.Forward(net.Forward(x, mode), mode), mode)
	}
	first, last := 0.0, 0.0
	for it := 0; it < 12; it++ {
		nn.ZeroGrads(params)
		logits := forward(nn.Train)
		loss, grad := nn.CrossEntropyRows(logits, targets)
		if it == 0 {
			first = loss
		}
		last = loss
		net.Backward(gap.Backward(head.Backward(grad)))
		opt.Step(params, &st)
	}
	if !(last < first*0.7) {
		t.Fatalf("training did not reduce loss: %.4f → %.4f", first, last)
	}
}
