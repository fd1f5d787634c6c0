package ufld

import (
	"math"
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	good := Tiny(resnet.R18, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.GridCells = 1
	if bad.Validate() == nil {
		t.Fatal("GridCells=1 accepted")
	}
	bad = good
	bad.Lanes = 0
	if bad.Validate() == nil {
		t.Fatal("Lanes=0 accepted")
	}
	bad = good
	bad.InputH = 2
	if bad.Validate() == nil {
		t.Fatal("tiny input accepted")
	}
	bad = good
	bad.HiddenDim = 0
	if bad.Validate() == nil {
		t.Fatal("HiddenDim=0 accepted")
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := Config{GridCells: 100, RowAnchors: 56, Lanes: 4}
	if cfg.Classes() != 101 {
		t.Fatalf("Classes = %d", cfg.Classes())
	}
	if cfg.Groups() != 224 {
		t.Fatalf("Groups = %d", cfg.Groups())
	}
}

func TestFullScaleMatchesPaperDims(t *testing.T) {
	cfg := FullScale(resnet.R18, 4)
	if cfg.GridCells != 100 || cfg.RowAnchors != 56 {
		t.Fatal("full-scale grid must be 100×56 per the paper")
	}
	if cfg.InputH != 288 || cfg.InputW != 800 {
		t.Fatal("full-scale input must be 288×800")
	}
}

func TestModelForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, rng)
	x := tensor.New(3, 3, cfg.InputH, cfg.InputW)
	rng.FillNormal(x, 0, 1)
	logits := m.Forward(x, nn.Eval)
	if logits.Dim(0) != 3*cfg.Groups() || logits.Dim(1) != cfg.Classes() {
		t.Fatalf("logits %v, want [%d,%d]", logits.Shape(), 3*cfg.Groups(), cfg.Classes())
	}
}

func TestRowIndexLayout(t *testing.T) {
	// Logits row (sample, lane, anchor) lives at index
	// (sample·Lanes+lane)·RowAnchors+anchor: mark one row and check
	// that Decode finds the lane there and nowhere else.
	cfg := Tiny(resnet.R18, 2)
	const n, sample, lane, anchor, cell = 2, 1, 1, 2, 3
	logits := tensor.New(n*cfg.Groups(), cfg.Classes())
	for r := 0; r < logits.Dim(0); r++ {
		logits.Set(20, r, cfg.GridCells) // "no lane"
	}
	row := (sample*cfg.Lanes+lane)*cfg.RowAnchors + anchor
	logits.Set(0, row, cfg.GridCells)
	logits.Set(20, row, cell)
	preds := Decode(cfg, logits, n)
	for ni, p := range preds {
		for l, pts := range p.Points {
			for a, pt := range pts {
				want := ni == sample && l == lane && a == anchor
				if pt.Present != want || want && math.Abs(pt.Cell-cell) > 1e-3 {
					t.Fatalf("sample %d lane %d anchor %d decoded %+v", ni, l, a, pt)
				}
			}
		}
	}
}

func TestParamSubsets(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := MustNewModel(Tiny(resnet.R18, 2), rng)
	all := nn.ParamCount(m.Params())
	bn := nn.ParamCount(m.BNParams())
	conv := nn.ParamCount(m.ConvParams())
	fc := nn.ParamCount(m.FCParams())
	if bn == 0 || conv == 0 || fc == 0 {
		t.Fatal("parameter subsets must be non-empty")
	}
	if bn >= all || conv >= all || fc >= all {
		t.Fatal("subsets must be proper")
	}
	// BN is by far the smallest set — the paper's efficiency argument.
	if !(bn < conv && bn < fc) {
		t.Fatalf("BN params (%d) must be the smallest subset (conv %d, fc %d)", bn, conv, fc)
	}
	// 21 BN layers in the R18 repro backbone+neck.
	if got := len(m.BatchNorms()); got != 21 {
		t.Fatalf("BatchNorms = %d, want 21", got)
	}
}

func TestDecodePerfectLogits(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	rows := cfg.Groups()
	logits := tensor.New(rows, cfg.Classes())
	want := make([]int, rows)
	rng := tensor.NewRNG(4)
	for r := 0; r < rows; r++ {
		cell := rng.Intn(cfg.GridCells)
		if r%5 == 4 { // every 5th anchor has no lane
			cell = Absent
		}
		want[r] = cell
		cls := cell
		if cell == Absent {
			cls = cfg.GridCells
		}
		logits.Set(20, r, cls) // confident spike
	}
	preds := Decode(cfg, logits, 1)
	for lane := 0; lane < cfg.Lanes; lane++ {
		for a := 0; a < cfg.RowAnchors; a++ {
			r := lane*cfg.RowAnchors + a
			p := preds[0].Points[lane][a]
			if want[r] == Absent {
				if p.Present {
					t.Fatalf("row %d: predicted lane where none labeled", r)
				}
				continue
			}
			if !p.Present {
				t.Fatalf("row %d: missing prediction", r)
			}
			if math.Abs(p.Cell-float64(want[r])) > 0.5 {
				t.Fatalf("row %d: decoded %.2f, want %d", r, p.Cell, want[r])
			}
		}
	}
}

func TestDecodeExpectationIsBetweenCells(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	logits := tensor.New(cfg.Groups(), cfg.Classes())
	// Equal mass on cells 2 and 3 → expectation 2.5.
	logits.Set(10, 0, 2)
	logits.Set(10, 0, 3)
	p := Decode(cfg, logits, 1)[0].Points[0][0]
	if !p.Present || math.Abs(p.Cell-2.5) > 1e-3 {
		t.Fatalf("expectation decode = %+v, want 2.5", p)
	}
}

func TestAccuracyPerfectAndBounds(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	s := Sample{Image: tensor.New(3, cfg.InputH, cfg.InputW), Cells: make([]int, cfg.Groups())}
	pred := Prediction{Points: make([][]LanePoint, cfg.Lanes)}
	for lane := 0; lane < cfg.Lanes; lane++ {
		pred.Points[lane] = make([]LanePoint, cfg.RowAnchors)
		for a := 0; a < cfg.RowAnchors; a++ {
			s.Cells[lane*cfg.RowAnchors+a] = 3
			pred.Points[lane][a] = LanePoint{Present: true, Cell: 3}
		}
	}
	acc := Accuracy(cfg, []Prediction{pred}, []Sample{s}, []int{0})
	if acc != 1 {
		t.Fatalf("perfect prediction accuracy = %v", acc)
	}
	// Shift all predictions far away → 0.
	for lane := range pred.Points {
		for a := range pred.Points[lane] {
			pred.Points[lane][a].Cell = 9
		}
	}
	if acc := Accuracy(cfg, []Prediction{pred}, []Sample{s}, []int{0}); acc != 0 {
		t.Fatalf("bad prediction accuracy = %v", acc)
	}
}

func TestAccuracyIgnoresAbsentGroundTruth(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	s := Sample{Image: tensor.New(3, cfg.InputH, cfg.InputW), Cells: make([]int, cfg.Groups())}
	for i := range s.Cells {
		s.Cells[i] = Absent
	}
	s.Cells[0] = 5
	pred := Prediction{Points: make([][]LanePoint, cfg.Lanes)}
	for lane := 0; lane < cfg.Lanes; lane++ {
		pred.Points[lane] = make([]LanePoint, cfg.RowAnchors)
	}
	pred.Points[0][0] = LanePoint{Present: true, Cell: 5.4}
	if acc := Accuracy(cfg, []Prediction{pred}, []Sample{s}, []int{0}); acc != 1 {
		t.Fatalf("accuracy = %v, want 1 (only labeled point matched)", acc)
	}
}

func TestAccuracyToleranceScales(t *testing.T) {
	small := Config{GridCells: 25}
	big := Config{GridCells: 100}
	if AccuracyTolCells(small) != 1.0 {
		t.Fatalf("25-cell tol = %v, want floor 1.0", AccuracyTolCells(small))
	}
	if math.Abs(AccuracyTolCells(big)-1.56) > 1e-9 {
		t.Fatalf("100-cell tol = %v, want 1.56", AccuracyTolCells(big))
	}
}

func TestBatchAssembly(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	rng := tensor.NewRNG(5)
	samples := make([]Sample, 3)
	for i := range samples {
		img := tensor.New(3, cfg.InputH, cfg.InputW)
		rng.FillUniform(img, 0, 1)
		cells := make([]int, cfg.Groups())
		for j := range cells {
			cells[j] = (i + j) % cfg.GridCells
		}
		cells[0] = Absent
		samples[i] = Sample{Image: img, Cells: cells}
	}
	x, targets := Batch(cfg, samples, []int{2, 0})
	if x.Dim(0) != 2 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if len(targets) != 2*cfg.Groups() {
		t.Fatalf("targets %d", len(targets))
	}
	// Absent maps to the "no lane" class index.
	if targets[0] != cfg.GridCells {
		t.Fatalf("absent target = %d, want %d", targets[0], cfg.GridCells)
	}
	// Image payload is copied in order.
	if x.At(0, 0, 0, 0) != samples[2].Image.At(0, 0, 0) {
		t.Fatal("batch order wrong")
	}
}

// TestImagesViewsSingleAndCopiesBatches: a one-frame Images result is a
// [1,3,H,W] header over the sample's own storage (no copy — the
// documented read-only contract), a larger one is an assembled copy,
// and both hold what Batch would have assembled.
func TestImagesViewsSingleAndCopiesBatches(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	rng := tensor.NewRNG(5)
	samples := make([]Sample, 3)
	for i := range samples {
		img := tensor.New(3, cfg.InputH, cfg.InputW)
		rng.FillUniform(img, 0, 1)
		cells := make([]int, cfg.Groups())
		samples[i] = Sample{Image: img, Cells: cells}
	}
	for _, idx := range [][]int{{1}, {2, 0}} {
		want, _ := Batch(cfg, samples, idx)
		got := Images(cfg, samples, idx)
		if !got.SameShape(want) || !got.AllClose(want, 0) {
			t.Fatalf("Images(%v) differs from Batch's tensor", idx)
		}
		shared := &got.Data[0] == &samples[idx[0]].Image.Data[0]
		if shared != (len(idx) == 1) {
			t.Fatalf("Images(%v): shares the sample's storage = %v", idx, shared)
		}
	}
	samples[1].Image = tensor.New(3, cfg.InputH, cfg.InputW+1)
	defer func() {
		if recover() == nil {
			t.Fatal("Images accepted a wrong-sized single image")
		}
	}()
	Images(cfg, samples, []int{1})
}

// TestDecoderMatchesDecode: a reused Decoder yields Predictions
// bit-equal to the allocating Decode on every call (stale points from
// the previous batch cleared), and allocates nothing once grown.
func TestDecoderMatchesDecode(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	var d Decoder
	rng := tensor.NewRNG(12)
	for round, n := range []int{2, 1, 2} {
		logits := tensor.New(n*cfg.Groups(), cfg.Classes())
		rng.FillUniform(logits, -4, 4)
		for r := round; r < logits.Dim(0); r += 3 {
			logits.Set(30, r, cfg.GridCells) // "no lane" rows move between rounds
		}
		want, got := Decode(cfg, logits, n), d.Decode(cfg, logits, n)
		if len(got) != n {
			t.Fatalf("round %d: %d predictions, want %d", round, len(got), n)
		}
		for ni := range want {
			for lane := range want[ni].Points {
				for a, w := range want[ni].Points[lane] {
					g := got[ni].Points[lane][a]
					if g.Present != w.Present || math.Float64bits(g.Cell) != math.Float64bits(w.Cell) {
						t.Fatalf("round %d sample %d lane %d anchor %d: %+v, want %+v", round, ni, lane, a, g, w)
					}
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { d.Decode(cfg, logits, n) }); allocs != 0 {
			t.Fatalf("round %d: reused Decoder allocates %.1f objects per call", round, allocs)
		}
	}
}

func TestSimilarityLossZeroForIdenticalAnchors(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	logits := tensor.New(cfg.Groups(), cfg.Classes())
	rng := tensor.NewRNG(6)
	// Same logits on every anchor of each lane.
	for lane := 0; lane < cfg.Lanes; lane++ {
		row := make([]float32, cfg.Classes())
		for k := range row {
			row[k] = float32(rng.Normal(0, 1))
		}
		for a := 0; a < cfg.RowAnchors; a++ {
			copy(logits.Data[(lane*cfg.RowAnchors+a)*cfg.Classes():(lane*cfg.RowAnchors+a+1)*cfg.Classes()], row)
		}
	}
	loss, grad := SimilarityLoss(cfg, logits, 1)
	if loss != 0 || grad.Norm2() != 0 {
		t.Fatalf("identical anchors: loss %v grad %v", loss, grad.Norm2())
	}
}

func TestSimilarityLossGradientNumeric(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	rng := tensor.NewRNG(7)
	logits := tensor.New(cfg.Groups(), cfg.Classes())
	rng.FillNormal(logits, 0, 1)
	_, grad := SimilarityLoss(cfg, logits, 1)
	eps := float32(1e-3)
	for _, i := range []int{0, 13, 40, logits.Size() - 1} {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SimilarityLoss(cfg, logits, 1)
		logits.Data[i] = orig - eps
		lm, _ := SimilarityLoss(cfg, logits, 1)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * float64(eps))
		if math.Abs(num-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("sim grad mismatch at %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestShapeLossZeroForStraightLane(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	logits := tensor.New(cfg.Groups(), cfg.Classes())
	// Constant location per lane → zero second difference.
	for lane := 0; lane < cfg.Lanes; lane++ {
		for a := 0; a < cfg.RowAnchors; a++ {
			logits.Set(15, lane*cfg.RowAnchors+a, 4)
		}
	}
	loss, _ := ShapeLoss(cfg, logits, 1)
	if loss > 1e-9 {
		t.Fatalf("straight lane shape loss = %v", loss)
	}
}

func TestShapeLossGradientNumeric(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	rng := tensor.NewRNG(8)
	logits := tensor.New(cfg.Groups(), cfg.Classes())
	rng.FillNormal(logits, 0, 0.5)
	_, grad := ShapeLoss(cfg, logits, 1)
	eps := float32(1e-2)
	for _, i := range []int{1, 25, 77} {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := ShapeLoss(cfg, logits, 1)
		logits.Data[i] = orig - eps
		lm, _ := ShapeLoss(cfg, logits, 1)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * float64(eps))
		if math.Abs(num-float64(grad.Data[i])) > 5e-3*math.Max(1, math.Abs(num)) {
			t.Fatalf("shape grad mismatch at %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := MustNewModel(Tiny(resnet.R18, 2), rng)
	c := m.Clone(rng.Split())
	x := tensor.New(1, 3, m.Cfg.InputH, m.Cfg.InputW)
	rng.FillNormal(x, 0, 1)
	if !m.Forward(x, nn.Eval).AllClose(c.Forward(x, nn.Eval), 1e-6) {
		t.Fatal("clone output differs")
	}
	// Mutating the clone must not affect the original.
	c.Params()[0].Value.Zero()
	if m.Params()[0].Value.Norm2() == 0 {
		t.Fatal("clone shares storage with original")
	}
}

func TestBNStateExtrasRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(10)
	m := MustNewModel(Tiny(resnet.R18, 2), rng)
	for _, bn := range m.BatchNorms() {
		rng.FillUniform(bn.RunningMean, -1, 1)
		rng.FillUniform(bn.RunningVar, 0.5, 2)
	}
	extras := m.BNStateExtras()
	m2 := MustNewModel(m.Cfg, tensor.NewRNG(11))
	if err := m2.ApplyBNStateExtras(extras); err != nil {
		t.Fatalf("ApplyBNStateExtras: %v", err)
	}
	for i, bn := range m.BatchNorms() {
		if !bn.RunningMean.AllClose(m2.BatchNorms()[i].RunningMean, 0) {
			t.Fatal("running mean not restored")
		}
	}
	if err := m2.ApplyBNStateExtras(map[string]*tensor.Tensor{}); err == nil {
		t.Fatal("missing extras accepted")
	}
}

func TestDescribeModelAddsHead(t *testing.T) {
	cfg := FullScale(resnet.R18, 4)
	full := DescribeModel(cfg)
	backboneOnly := resnet.Describe(cfg.Backbone, cfg.InputH, cfg.InputW)
	if full.TotalFLOPs() <= backboneOnly.TotalFLOPs() {
		t.Fatal("head must add FLOPs")
	}
	if full.TotalParams() <= backboneOnly.TotalParams() {
		t.Fatal("head must add params")
	}
	// Output dimension is groups × classes.
	if full.OutC != cfg.Groups()*cfg.Classes() {
		t.Fatalf("head out %d, want %d", full.OutC, cfg.Groups()*cfg.Classes())
	}
	// BN params stay ≈1% of the model even with the FC head.
	frac := float64(full.TotalBNParams()) / float64(full.TotalParams())
	if frac > 0.02 {
		t.Fatalf("BN fraction %.4f too large", frac)
	}
}

func TestEvaluateOnUntrainedModelIsFinite(t *testing.T) {
	rng := tensor.NewRNG(12)
	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, rng)
	ds := &Dataset{Name: "t", Samples: make([]Sample, 3)}
	for i := range ds.Samples {
		img := tensor.New(3, cfg.InputH, cfg.InputW)
		rng.FillUniform(img, 0, 1)
		cells := make([]int, cfg.Groups())
		for j := range cells {
			cells[j] = j % cfg.GridCells
		}
		ds.Samples[i] = Sample{Image: img, Cells: cells}
	}
	res := Evaluate(m, ds, 2)
	if res.Accuracy < 0 || res.Accuracy > 1 {
		t.Fatalf("accuracy %v out of range", res.Accuracy)
	}
	if res.MeanEntropy <= 0 || math.IsNaN(res.MeanEntropy) {
		t.Fatalf("entropy %v", res.MeanEntropy)
	}
	if res.Samples != 3 {
		t.Fatalf("samples %d", res.Samples)
	}
}
