package carlane

import (
	"fmt"

	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// Layout selects the lane arrangement of generated scenes.
type Layout int

const (
	// Ego2 renders the two ego-lane boundaries (MoLane's 2-lane task).
	Ego2 Layout = iota
	// Quad4 renders four lane markings (TuLane's 4-lane task).
	Quad4
	// Mo4 renders a model-vehicle scene (two visible ego lanes) in the
	// 4-lane label space: the outer two lanes are labeled Absent. This
	// is how MuLane unifies its two targets.
	Mo4
)

// Lanes returns the label-space lane count of the layout.
func (l Layout) Lanes() int {
	if l == Ego2 {
		return 2
	}
	return 4
}

// randomScene draws scene geometry for a layout. The structural
// distribution is shared between source and target (the paper's gap is
// photometric sim-to-real, not a task change); only the curvature range
// differs slightly per domain to reflect model-track vs highway roads.
func randomScene(layout Layout, d Domain, rng *tensor.RNG) *Scene {
	s := &Scene{
		VanishX:        0.5 + rng.Range(-0.08, 0.08),
		HorizonY:       0.32 + rng.Range(-0.04, 0.04),
		MarkHalfWidth:  0.008 + rng.Range(0, 0.004),
		MarkBrightness: 0.88,
		RoadBrightness: 0.30,
	}
	curveMax := 0.08
	switch d {
	case MoReal:
		curveMax = 0.12 // tighter model-track curves
		s.MarkBrightness = 0.80
	case TuReal:
		curveMax = 0.05 // gentle highway curvature
	}
	s.Curvature = rng.Range(-curveMax, curveMax)
	center := 0.5 + rng.Range(-0.10, 0.10)
	switch layout {
	case Ego2:
		spacing := rng.Range(0.46, 0.68)
		s.BottomX = []float64{center - spacing/2, center + spacing/2}
		s.Visible = []bool{true, true}
		s.Dashed = []bool{false, false}
	case Quad4:
		spacing := rng.Range(0.26, 0.34)
		s.BottomX = []float64{
			center - 1.5*spacing, center - 0.5*spacing,
			center + 0.5*spacing, center + 1.5*spacing,
		}
		s.Visible = []bool{true, true, true, true}
		// Inner separators dashed, as on real highways.
		s.Dashed = []bool{false, true, true, false}
	case Mo4:
		spacing := rng.Range(0.46, 0.68)
		s.BottomX = []float64{
			center - 1.5*spacing, center - spacing/2,
			center + spacing/2, center + 1.5*spacing,
		}
		s.Visible = []bool{false, true, true, false}
		s.Dashed = []bool{false, false, false, false}
	default:
		panic(fmt.Sprintf("carlane: unknown layout %d", int(layout)))
	}
	return s
}

// SplitSpec describes one generated dataset split.
type SplitSpec struct {
	// Name labels the split (e.g. "molane/target-val").
	Name string
	// Layouts cycles over the scene layouts (one per sample, round
	// robin) — MuLane passes two entries to interleave its targets.
	Layouts []Layout
	// Domains cycles in lockstep with Layouts.
	Domains []Domain
	// N is the number of samples.
	N int
	// Seed makes the split reproducible.
	Seed uint64
}

// Generate renders a dataset split for the given detector config.
func Generate(cfg ufld.Config, spec SplitSpec) *ufld.Dataset {
	if len(spec.Layouts) == 0 || len(spec.Layouts) != len(spec.Domains) {
		panic("carlane: SplitSpec needs matching Layouts/Domains")
	}
	rng := tensor.NewRNG(spec.Seed)
	ds := &ufld.Dataset{Name: spec.Name, Domain: spec.Domains[0].String(), Samples: make([]ufld.Sample, spec.N)}
	for _, d := range spec.Domains[1:] {
		if d != spec.Domains[0] {
			ds.Domain = "mixed"
			break
		}
	}
	for i := 0; i < spec.N; i++ {
		layout := spec.Layouts[i%len(spec.Layouts)]
		domain := spec.Domains[i%len(spec.Domains)]
		if layout.Lanes() != cfg.Lanes {
			panic(fmt.Sprintf("carlane: layout %d has %d lanes, config wants %d", int(layout), layout.Lanes(), cfg.Lanes))
		}
		scene := randomScene(layout, domain, rng)
		img := scene.Render(cfg.InputH, cfg.InputW, rng)
		ApplyDomain(img, domain, rng)
		ds.Samples[i] = ufld.Sample{Image: img, Cells: scene.Label(cfg)}
	}
	return ds
}

// Benchmark bundles the four splits of one CARLANE-style benchmark.
type Benchmark struct {
	// Name is "MoLane", "TuLane" or "MuLane".
	Name string
	// Cfg is the detector configuration (fixes Lanes).
	Cfg ufld.Config
	// SourceTrain is labeled simulator data (model pre-training).
	SourceTrain *ufld.Dataset
	// SourceVal is held-out simulator data.
	SourceVal *ufld.Dataset
	// TargetTrain is the unlabeled adaptation stream (labels present
	// but never read by adaptation).
	TargetTrain *ufld.Dataset
	// TargetVal is the labeled target validation split used for the
	// accuracy numbers in Fig. 2.
	TargetVal *ufld.Dataset
}

// Sizes fixes the per-split sample counts.
type Sizes struct {
	// SourceTrain, SourceVal, TargetTrain, TargetVal are sample counts.
	SourceTrain, SourceVal, TargetTrain, TargetVal int
}

// DefaultSizes returns the repro-profile split sizes (the real CARLANE
// uses 10⁴–10⁵ images per split; the ratios are preserved).
func DefaultSizes() Sizes {
	return Sizes{SourceTrain: 240, SourceVal: 48, TargetTrain: 96, TargetVal: 64}
}

// BenchmarkName enumerates the three CARLANE benchmarks.
type BenchmarkName string

const (
	// MoLane: 2 lanes, CARLA sim → real model vehicle.
	MoLane BenchmarkName = "MoLane"
	// TuLane: 4 lanes, CARLA sim → TuSimple US highways.
	TuLane BenchmarkName = "TuLane"
	// MuLane: 4 lanes, multi-target — both MoLane and TuLane targets
	// interleaved 1:1.
	MuLane BenchmarkName = "MuLane"
)

// AllBenchmarks lists the benchmark names in paper order.
var AllBenchmarks = []BenchmarkName{MoLane, TuLane, MuLane}

// Lanes returns the benchmark's lane count (Fig. 1).
func (b BenchmarkName) Lanes() int {
	if b == MoLane {
		return 2
	}
	return 4
}

// Build generates all four splits of a benchmark for the given
// backbone variant using the supplied base config factory (e.g.
// ufld.Repro or ufld.Tiny).
func Build(name BenchmarkName, variant resnet.Variant, cfgFor func(resnet.Variant, int) ufld.Config, sizes Sizes, seed uint64) *Benchmark {
	cfg := cfgFor(variant, name.Lanes())
	var srcLayouts, tgtLayouts []Layout
	var tgtDomains []Domain
	switch name {
	case MoLane:
		srcLayouts = []Layout{Ego2}
		tgtLayouts = []Layout{Ego2}
		tgtDomains = []Domain{MoReal}
	case TuLane:
		srcLayouts = []Layout{Quad4}
		tgtLayouts = []Layout{Quad4}
		tgtDomains = []Domain{TuReal}
	case MuLane:
		srcLayouts = []Layout{Mo4, Quad4}
		tgtLayouts = []Layout{Mo4, Quad4}
		tgtDomains = []Domain{MoReal, TuReal}
	default:
		panic(fmt.Sprintf("carlane: unknown benchmark %q", name))
	}
	simDomains := make([]Domain, len(srcLayouts))
	for i := range simDomains {
		simDomains[i] = Sim
	}
	prefix := string(name)
	return &Benchmark{
		Name: prefix,
		Cfg:  cfg,
		SourceTrain: Generate(cfg, SplitSpec{
			Name: prefix + "/source-train", Layouts: srcLayouts, Domains: simDomains,
			N: sizes.SourceTrain, Seed: seed}),
		SourceVal: Generate(cfg, SplitSpec{
			Name: prefix + "/source-val", Layouts: srcLayouts, Domains: simDomains,
			N: sizes.SourceVal, Seed: seed + 1}),
		TargetTrain: Generate(cfg, SplitSpec{
			Name: prefix + "/target-train", Layouts: tgtLayouts, Domains: tgtDomains,
			N: sizes.TargetTrain, Seed: seed + 2}),
		TargetVal: Generate(cfg, SplitSpec{
			Name: prefix + "/target-val", Layouts: tgtLayouts, Domains: tgtDomains,
			N: sizes.TargetVal, Seed: seed + 3}),
	}
}
