package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/ufld"
)

// trainBudget is a source-training budget for a fixture model.
type trainBudget struct {
	samples, epochs, batch int
	lr                     float64
}

// sizes holds every op count of the benchmark. They are constants of
// the source (fullSizes), never derived from elapsed time: a run
// repeats whole blocks of this fixed work until its time is up, so two
// runs differ in how many blocks they timed, not in what a block does.
type sizes struct {
	setups    int // set-ups per untraced run; setup_s is their median
	cpSetups  int // ... of control_plane, whose set-up is too short for three to be steady
	minBlocks int // blocks every run completes even when time is up
	probeReps int // repetitions behind each layer-probe median

	// frame_adapt
	faProfile        func(resnet.Variant, int) ufld.Config
	faTrain          trainBudget
	faWarm, faFrames int // untimed and timed frames per block
	faVal            int // target validation images
	faCheckGain      bool

	// serve_board and fleet_chaos share one Tiny source model
	tinyTrain                   trainBudget
	sbStreams, sbWarm, sbEpochs int

	// control_plane
	cpStreams, cpFrames        int // fleet: streams × future frames
	cpWarm, cpRounds           int
	cpMoves, cpCkpts, cpBoards int

	// fleet_chaos
	fcBoards, fcStreams, fcFrames int
	fcFPS                         float64
	fcPlan                        string
}

// fullSizes is the benchmark as BENCHMARK.json describes it.
var fullSizes = sizes{
	setups: 3, cpSetups: 7, minBlocks: 2, probeReps: 5,

	faProfile: ufld.Small,
	faTrain:   trainBudget{samples: 32, epochs: 2, batch: 4, lr: 8e-3},
	faWarm:    4, faFrames: 20, faVal: 24, faCheckGain: true,

	tinyTrain: trainBudget{samples: 40, epochs: 3, batch: 8, lr: 2e-3},
	sbStreams: 4, sbWarm: 4, sbEpochs: 24,

	cpStreams: 1024, cpFrames: 120, cpWarm: 1, cpRounds: 10,
	cpMoves: 8, cpCkpts: 64, cpBoards: 64,

	fcBoards: 4, fcStreams: 32, fcFrames: 16, fcFPS: 8, fcPlan: "kill:hot@3,join@5",
}

// env is what one run of one workload is given.
type env struct {
	seed    uint64
	seconds float64
	sz      sizes
	workers int    // serving workers per board: min(2, nproc)
	outDir  string // where span files go
	cal     *calibrator
	errs    []string // check failures outside any block (probes)
}

func (e *env) failf(format string, a ...any) {
	e.errs = append(e.errs, fmt.Sprintf(format, a...))
}

// blockOut is what one block — one replica of a workload's fixed work,
// started from the set-up state — hands back.
type blockOut struct {
	// One entry per timed op, in op order: a block's op i does the same
	// work in every block of a run. A block records host time; when it
	// ends, runBlocks rescales it to the reference speed.
	opMs     []float64 // ms of the op
	opFrames []int     // frames the op handled
	ctlUs    []float64 // µs outside model compute per stream-epoch
	// ctlUs stays in host µs — batch assembly, planning and coordinator
	// work are allocation-, copy- and hand-off-bound, and their host time
	// was measured to stay within 5 % while the calibration kernel moved
	// by 30 % — unless ctlScaled says the samples are compute like the
	// ops themselves.
	ctlScaled bool
	// calMs are calibration-kernel times (calibrate.go): one before each
	// timed op and one after the last. Every op's timings are scaled by
	// the speed its two neighbours give, the block's other timings
	// (layerMs) by the speed of its median sample.
	calMs   []float64
	mallocs uint64  // heap allocations during the timed phase
	heapMB  float64 // live heap after the timed phase, state still referenced
	// accuracy is the point-weighted lane accuracy of the predictions
	// made before the step that consumed each frame.
	accuracy float64
	// exact holds what must repeat bit for bit in every block of a run
	// and in every run of a seed: virtual-time metrics, accuracies and
	// the fixed-work counts.
	exact             map[string]float64
	attempted, failed int
	errs              []string
	// layerMs holds per-layer timings in ms and layer other per-layer
	// values the block measured.
	layerMs, layer map[string][]float64
}

func newBlockOut(ops int) *blockOut {
	return &blockOut{
		opMs:     make([]float64, 0, ops),
		opFrames: make([]int, 0, ops),
		ctlUs:    make([]float64, 0, ops),
		calMs:    make([]float64, 0, ops+8),
		exact:    make(map[string]float64),
		layerMs:  make(map[string][]float64),
		layer:    make(map[string][]float64),
	}
}

// op records one timed op.
func (b *blockOut) op(ms float64, frames int, ctlUs float64) {
	b.opMs = append(b.opMs, ms)
	b.opFrames = append(b.opFrames, frames)
	b.ctlUs = append(b.ctlUs, ctlUs)
}

// frames is the number of frames the block's timed ops handled.
func (b *blockOut) frames() int {
	n := 0
	for _, f := range b.opFrames {
		n += f
	}
	return n
}

func (b *blockOut) fail(format string, a ...any) {
	b.failed++
	if len(b.errs) < 8 {
		b.errs = append(b.errs, fmt.Sprintf(format, a...))
	}
}

// memMark reads the allocation counter; the timed phase of a block sits
// between two marks.
func memMark() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB is HeapAlloc after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// workload is one named traffic mix. setup builds, from the seed,
// everything that exists before the timed phase; block runs one replica
// of the fixed work; layers turns blocks and spans into the workload's
// per-layer metrics; timedRoot names the span that roots a timed op
// (warm-up and drain ops are rooted under other names); teardown stops
// what setup started.
type workload interface {
	setups(sz sizes) int // how many set-ups make setup_s's median steady
	setup(e *env)
	block(e *env, tr *tracer) *blockOut
	layers(e *env, plain, traced []*blockOut, tr *tracer, out map[string]float64)
	timedRoot() string
	spansPerBlock(e *env) int
	teardown()
}

// traceMinCover is the share of every timed op its child spans must
// cover: the harness adds nothing unaccounted between its calls.
const traceMinCover = 0.99

func newWorkload(name string) workload {
	switch name {
	case "frame_adapt":
		return &frameAdapt{}
	case "serve_board":
		return &serveBoard{}
	case "control_plane":
		return &controlPlane{}
	case "fleet_chaos":
		return &fleetChaos{}
	}
	return nil
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Blocks    int                `json:"blocks"`
	Metrics   map[string]float64 `json:"metrics"`
	// Exact repeats block 0's exact map: equal across runs of a seed.
	Exact  map[string]float64 `json:"exact"`
	Errors []string           `json:"errors,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

// maxTracedBlocks bounds the span buffer, which is allocated up front.
const maxTracedBlocks = 32

// runBlocks repeats the workload's block until budget seconds of wall
// time have passed and at least min (at most max) blocks are done,
// collecting between blocks so one block's garbage is not billed to the
// next.
func runBlocks(e *env, w workload, tr *tracer, budget float64, min, max int) []*blockOut {
	var out []*blockOut
	start := time.Now()
	for len(out) < min || (time.Since(start).Seconds() < budget && len(out) < max) {
		runtime.GC()
		firstSpan := tr.len()
		b := w.block(e, tr)
		opSpeed := make([]float64, len(b.opMs))
		for i := range b.opMs {
			opSpeed[i] = speed(b.calMs[i], b.calMs[i+1])
			b.opMs[i] *= opSpeed[i]
			if b.ctlScaled {
				b.ctlUs[i] *= opSpeed[i]
			}
		}
		mid := median(b.calMs)
		blockSpeed := speed(mid, mid)
		for _, vs := range b.layerMs {
			for i := range vs {
				vs[i] *= blockSpeed
			}
		}
		tr.scaleFrom(firstSpan, w.timedRoot(), opSpeed, blockSpeed)
		out = append(out, b)
	}
	return out
}

// settle folds blocks into r: op and failure counts, errors, and the
// check that every block repeated the exact values of ref, the run's
// first block.
func settle(r *result, blocks []*blockOut, ref *blockOut, label string) {
	for bi, b := range blocks {
		r.Attempted += b.attempted
		r.Failed += b.failed
		r.Errors = append(r.Errors, b.errs...)
		for _, k := range sortedKeys(b.exact) {
			want, ok := ref.exact[k]
			if got := b.exact[k]; !ok || math.Float64bits(got) != math.Float64bits(want) {
				r.Failed++
				r.Errors = append(r.Errors, fmt.Sprintf("%s block %d: %s = %v, the run's first block had %v", label, bi, k, got, want))
			}
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// pool gathers one field of every block into one sample set.
func pool(blocks []*blockOut, f func(*blockOut) []float64) []float64 {
	var out []float64
	for _, b := range blocks {
		out = append(out, f(b)...)
	}
	return out
}

func opMsOf(b *blockOut) []float64 { return b.opMs }

// msPerFrame turns a block's ops into per-frame samples.
func msPerFrame(opMs []float64, opFrames []int) []float64 {
	out := make([]float64, 0, len(opMs))
	for i, ms := range opMs {
		if opFrames[i] > 0 {
			out = append(out, ms/float64(opFrames[i]))
		}
	}
	return out
}

func perBlock(blocks []*blockOut, f func(*blockOut) float64) []float64 {
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		out[i] = f(b)
	}
	return out
}

// runWorkload is one run: set up, measure for e.seconds, check. With
// tracing off it yields every end-to-end metric; with tracing on, every
// per-layer metric.
func runWorkload(e *env, name string, traced bool) *result {
	r := &result{Workload: name, Seed: e.seed, Traced: traced, Metrics: make(map[string]float64)}
	w := newWorkload(name)
	setups := w.setups(e.sz)
	if traced {
		setups = 1
	}
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.teardown()
			w = newWorkload(name)
		}
		runtime.GC()
		before := e.cal.steady(5)
		t0 := time.Now()
		w.setup(e)
		s := time.Since(t0).Seconds()
		setupS = append(setupS, s*speed(before, e.cal.steady(5)))
	}
	defer w.teardown()

	if !traced {
		blocks := runBlocks(e, w, nil, e.seconds, e.sz.minBlocks, math.MaxInt)
		settle(r, blocks, blocks[0], "untraced")
		r.Blocks = len(blocks)
		r.Exact = blocks[0].exact
		m := r.Metrics
		m["setup_s"] = median(setupS)
		frames := blocks[0].frames()
		perFrame := pool(blocks, func(b *blockOut) []float64 { return msPerFrame(b.opMs, b.opFrames) })
		// Throughput at the typical op cost: a mean over all op time would
		// carry every spike a neighbour on the shared host puts into an op.
		m["frames_per_s"] = 1e3 * float64(frames) / (float64(len(blocks[0].opMs)) * median(pool(blocks, opMsOf)))
		m["frame_ms_p50"] = median(perFrame)
		m["ctl_us_per_stream_epoch"] = median(pool(blocks, func(b *blockOut) []float64 { return b.ctlUs }))
		m["allocs_per_frame"] = median(perBlock(blocks, func(b *blockOut) float64 { return float64(b.mallocs) / float64(frames) }))
		m["live_heap_mb"] = median(perBlock(blocks, func(b *blockOut) float64 { return b.heapMB }))
		m["online_accuracy"] = median(perBlock(blocks, func(b *blockOut) float64 { return b.accuracy }))
		m["deadline_hit_rate"] = blocks[0].exact["deadline_hit_rate"]
		m["energy_j_per_frame"] = blocks[0].exact["energy_j_per_frame"]
		m["served_share"] = blocks[0].exact["served_frames"] / blocks[0].exact["produced_frames"]
		tv, tp := tail(perFrame)
		r.Notes = append(r.Notes, fmt.Sprintf("%d blocks, %d timed ops; ms per frame p50 %.4f, p%.0f %.4f; box speed %.2f of the reference",
			len(blocks), len(perFrame), median(perFrame), tp, tv, calibNominalMs/median(pool(blocks, func(b *blockOut) []float64 { return b.calMs }))))
	} else {
		// A third of the time each for the untraced reference, the
		// traced blocks and the layer probes.
		plain := runBlocks(e, w, nil, e.seconds/3, 1, math.MaxInt)
		settle(r, plain, plain[0], "untraced")
		tr := newTracer(maxTracedBlocks * w.spansPerBlock(e))
		tracedBlocks := runBlocks(e, w, tr, e.seconds/3, 1, maxTracedBlocks)
		settle(r, tracedBlocks, plain[0], "traced")
		r.Blocks = len(plain) + len(tracedBlocks)
		r.Exact = plain[0].exact
		for _, ms := range perLayer {
			r.Metrics[ms.Name] = 0
		}
		r.Metrics["bench.trace_overhead_share"] = median(pool(tracedBlocks, opMsOf))/median(pool(plain, opMsOf)) - 1
		w.layers(e, plain, tracedBlocks, tr, r.Metrics)
		if errs := tr.check(w.timedRoot(), traceMinCover); len(errs) > 0 {
			r.Failed += len(errs)
			r.Errors = append(r.Errors, errs...)
		}
		path := filepath.Join(e.outDir, name+".trace.json")
		if err := tr.write(path); err != nil {
			r.Failed++
			r.Errors = append(r.Errors, err.Error())
		}
		r.Notes = append(r.Notes, fmt.Sprintf("%d spans over %d traced blocks -> %s", len(tr.spans), len(tracedBlocks), path))
	}
	r.Failed += len(e.errs)
	r.Errors = append(r.Errors, e.errs...)
	e.errs = nil
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Failed++
			r.Errors = append(r.Errors, fmt.Sprintf("metric %s is %v", k, v))
			r.Metrics[k] = 0
		}
	}
	r.Correct = r.Failed == 0
	return r
}
