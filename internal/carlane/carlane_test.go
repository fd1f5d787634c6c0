package carlane

import (
	"math"
	"strings"
	"testing"

	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

func testCfg(lanes int) ufld.Config { return ufld.Tiny(resnet.R18, lanes) }

func TestLayoutLanes(t *testing.T) {
	if Ego2.Lanes() != 2 || Quad4.Lanes() != 4 || Mo4.Lanes() != 4 {
		t.Fatal("layout lane counts wrong")
	}
	if MoLane.Lanes() != 2 || TuLane.Lanes() != 4 || MuLane.Lanes() != 4 {
		t.Fatal("benchmark lane counts wrong (paper Fig. 1)")
	}
}

func TestSceneLaneXEndpoints(t *testing.T) {
	s := &Scene{VanishX: 0.5, BottomX: []float64{0.2, 0.8}, Curvature: 0}
	if s.LaneX(0, 1) != 0.2 || s.LaneX(1, 1) != 0.8 {
		t.Fatal("bottom intersection wrong")
	}
	// At the horizon every lane converges to the vanishing point.
	if math.Abs(s.LaneX(0, 0)-0.5) > 1e-12 || math.Abs(s.LaneX(1, 0)-0.5) > 1e-12 {
		t.Fatal("lanes must converge at vanishing point")
	}
}

func TestSceneCurvatureBows(t *testing.T) {
	straight := &Scene{VanishX: 0.5, BottomX: []float64{0.5}, Curvature: 0}
	curved := &Scene{VanishX: 0.5, BottomX: []float64{0.5}, Curvature: 0.1}
	if curved.LaneX(0, 0.5) <= straight.LaneX(0, 0.5) {
		t.Fatal("positive curvature must bow right at mid depth")
	}
	// Curvature vanishes at both endpoints.
	if curved.LaneX(0, 1) != 0.5 {
		t.Fatal("curvature must vanish at bottom")
	}
}

func TestLabelMatchesGeometry(t *testing.T) {
	cfg := testCfg(2)
	rng := tensor.NewRNG(1)
	s := randomScene(Ego2, Sim, rng)
	cells := s.Label(cfg)
	if len(cells) != cfg.Groups() {
		t.Fatalf("label size %d, want %d", len(cells), cfg.Groups())
	}
	ts := anchorTs(s, cfg)
	for lane := 0; lane < 2; lane++ {
		for a, tv := range ts {
			got := cells[lane*cfg.RowAnchors+a]
			x := s.LaneX(lane, tv)
			if x < 0 || x >= 1 {
				if got != ufld.Absent {
					t.Fatalf("out-of-frame lane labeled %d", got)
				}
				continue
			}
			want := int(x * float64(cfg.GridCells))
			if want >= cfg.GridCells {
				want = cfg.GridCells - 1
			}
			if got != want {
				t.Fatalf("lane %d anchor %d: cell %d, want %d", lane, a, got, want)
			}
		}
	}
}

func TestInvisibleLanesAreAbsent(t *testing.T) {
	cfg := testCfg(4)
	rng := tensor.NewRNG(2)
	s := randomScene(Mo4, MoReal, rng)
	cells := s.Label(cfg)
	for a := 0; a < cfg.RowAnchors; a++ {
		if cells[0*cfg.RowAnchors+a] != ufld.Absent || cells[3*cfg.RowAnchors+a] != ufld.Absent {
			t.Fatal("Mo4 outer lanes must be Absent")
		}
	}
	// Inner lanes should mostly be present.
	present := 0
	for lane := 1; lane <= 2; lane++ {
		for a := 0; a < cfg.RowAnchors; a++ {
			if cells[lane*cfg.RowAnchors+a] != ufld.Absent {
				present++
			}
		}
	}
	if present < cfg.RowAnchors {
		t.Fatalf("only %d inner points present", present)
	}
}

func TestRenderValueRange(t *testing.T) {
	cfg := testCfg(2)
	rng := tensor.NewRNG(3)
	s := randomScene(Ego2, Sim, rng)
	img := s.Render(cfg.InputH, cfg.InputW, rng)
	if img.Dim(0) != 3 || img.Dim(1) != cfg.InputH || img.Dim(2) != cfg.InputW {
		t.Fatalf("render shape %v", img.Shape())
	}
	if img.Min() < 0 || img.Max() > 1 {
		t.Fatalf("render range [%v,%v]", img.Min(), img.Max())
	}
	// Markings must actually be brighter than the road: the brightest
	// pixel below the horizon should be near MarkBrightness.
	if img.Max() < 0.7 {
		t.Fatal("no bright lane markings rendered")
	}
}

func TestRenderMarkingAtLabel(t *testing.T) {
	// The rendered marking must appear at the labeled cell.
	cfg := testCfg(2)
	rng := tensor.NewRNG(4)
	s := randomScene(Ego2, Sim, rng)
	img := s.Render(cfg.InputH, cfg.InputW, rng)
	cells := s.Label(cfg)
	ts := anchorTs(s, cfg)
	checked := 0
	for lane := 0; lane < 2; lane++ {
		for a, tv := range ts {
			c := cells[lane*cfg.RowAnchors+a]
			if c == ufld.Absent {
				continue
			}
			y := int((s.HorizonY + tv*(1-s.HorizonY)) * float64(cfg.InputH))
			if y >= cfg.InputH {
				y = cfg.InputH - 1
			}
			x := int(s.LaneX(lane, tv) * float64(cfg.InputW))
			if x < 1 || x >= cfg.InputW-1 {
				continue
			}
			// Some row may be in a dash gap; look for brightness at
			// x±1.
			peak := img.At(0, y, x)
			for dx := -1; dx <= 1; dx++ {
				if v := img.At(0, y, x+dx); v > peak {
					peak = v
				}
			}
			if peak > 0.5 {
				checked++
			}
		}
	}
	if checked < cfg.RowAnchors {
		t.Fatalf("markings found at only %d labeled points", checked)
	}
}

func TestDomainsShiftStatistics(t *testing.T) {
	cfg := testCfg(2)
	rng := tensor.NewRNG(5)
	base := randomScene(Ego2, Sim, rng)
	render := func(d Domain, seed uint64) *tensor.Tensor {
		r := tensor.NewRNG(seed)
		img := base.Render(cfg.InputH, cfg.InputW, r)
		ApplyDomain(img, d, r)
		return img
	}
	sim := render(Sim, 10)
	mo := render(MoReal, 10)
	tu := render(TuReal, 10)
	simMean := sim.Mean()
	moMean := mo.Mean()
	tuMean := tu.Mean()
	if !(moMean < simMean-0.05) {
		t.Fatalf("MoReal must be darker than sim: %.3f vs %.3f", moMean, simMean)
	}
	if !(tuMean > simMean+0.03) {
		t.Fatalf("TuReal (hazy) must be brighter than sim: %.3f vs %.3f", tuMean, simMean)
	}
	// Contrast (std) drops under haze.
	_, simStd := sim.MeanStd()
	_, tuStd := tu.MeanStd()
	if !(tuStd < simStd) {
		t.Fatalf("TuReal must be lower contrast: %.3f vs %.3f", tuStd, simStd)
	}
}

func TestDomainDeterminism(t *testing.T) {
	cfg := testCfg(2)
	gen := func() *ufld.Dataset {
		return Generate(cfg, SplitSpec{Name: "x", Layouts: []Layout{Ego2}, Domains: []Domain{MoReal}, N: 3, Seed: 42})
	}
	a, b := gen(), gen()
	for i := range a.Samples {
		if !a.Samples[i].Image.AllClose(b.Samples[i].Image, 0) {
			t.Fatal("generation is not deterministic")
		}
		for j := range a.Samples[i].Cells {
			if a.Samples[i].Cells[j] != b.Samples[i].Cells[j] {
				t.Fatal("labels are not deterministic")
			}
		}
	}
}

func TestGenerateRejectsLaneMismatch(t *testing.T) {
	cfg := testCfg(2)
	defer func() {
		if recover() == nil {
			t.Fatal("4-lane layout with 2-lane config accepted")
		}
	}()
	Generate(cfg, SplitSpec{Name: "bad", Layouts: []Layout{Quad4}, Domains: []Domain{Sim}, N: 1, Seed: 1})
}

func TestBuildBenchmarks(t *testing.T) {
	sizes := testSizes()
	for _, name := range AllBenchmarks {
		b := Build(name, resnet.R18, ufld.Tiny, sizes, 7)
		if b.Cfg.Lanes != name.Lanes() {
			t.Fatalf("%s: config lanes %d", name, b.Cfg.Lanes)
		}
		if b.SourceTrain.Len() != sizes.SourceTrain || b.TargetVal.Len() != sizes.TargetVal {
			t.Fatalf("%s: split sizes wrong", name)
		}
		// Source is sim; target is not.
		if b.SourceTrain.Domain != "sim" {
			t.Fatalf("%s: source domain %q", name, b.SourceTrain.Domain)
		}
		if b.TargetVal.Domain == "sim" {
			t.Fatalf("%s: target domain is sim", name)
		}
	}
}

func TestMuLaneInterleavesTargets(t *testing.T) {
	b := Build(MuLane, resnet.R18, ufld.Tiny, testSizes(), 9)
	if b.TargetVal.Domain != "mixed" {
		t.Fatalf("MuLane target domain %q, want mixed", b.TargetVal.Domain)
	}
	// Even samples are Mo4 (outer lanes absent), odd are Quad4.
	s0 := b.TargetVal.Samples[0]
	s1 := b.TargetVal.Samples[1]
	outerAbsent := func(s ufld.Sample) bool {
		cfg := b.Cfg
		for a := 0; a < cfg.RowAnchors; a++ {
			if s.Cells[a] != ufld.Absent {
				return false
			}
		}
		return true
	}
	if !outerAbsent(s0) {
		t.Fatal("even MuLane samples must be model-vehicle frames")
	}
	if outerAbsent(s1) {
		t.Fatal("odd MuLane samples must be 4-lane highway frames")
	}
}

func TestComputeStats(t *testing.T) {
	cfg := testCfg(2)
	ds := Generate(cfg, SplitSpec{Name: "s", Layouts: []Layout{Ego2}, Domains: []Domain{Sim}, N: 4, Seed: 3})
	st := ComputeStats(ds)
	if st.N != 4 || st.MeanBrightness <= 0 || st.MeanBrightness >= 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.LabeledPoints+st.AbsentPoints != 4*cfg.Groups() {
		t.Fatal("point counts don't sum")
	}
	if st.LabeledPoints == 0 {
		t.Fatal("no labeled points generated")
	}
}

func TestWriteBenchmarkTable(t *testing.T) {
	b := Build(MoLane, resnet.R18, ufld.Tiny, testSizes(), 11)
	var sb strings.Builder
	WriteBenchmarkTable(&sb, b)
	out := sb.String()
	for _, want := range []string{"MoLane", "source-train", "target-val", "sim", "molane-real"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestDomainStringAndUnknownPanics(t *testing.T) {
	if Sim.String() != "sim" || MoReal.String() != "molane-real" || TuReal.String() != "tulane-real" {
		t.Fatal("domain names wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown domain accepted")
		}
	}()
	ApplyDomain(tensor.New(3, 4, 4), Domain(99), tensor.NewRNG(1))
}

// testSizes returns very small splits for unit tests.
func testSizes() Sizes {
	return Sizes{SourceTrain: 24, SourceVal: 8, TargetTrain: 16, TargetVal: 12}
}
