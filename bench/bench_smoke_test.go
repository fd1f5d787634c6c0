package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"ldbnadapt/internal/ufld"
)

// The smoke test runs every workload at toy size: enough to execute
// every code path, check and metric, far too little to time anything.

// toySizes runs every code path in a few seconds for the smoke test.
// The model is too small and too briefly trained for the accuracy-gain
// check to mean anything, so that one check is off.
var toySizes = sizes{
	setups: 1, cpSetups: 1, minBlocks: 2, probeReps: 1,

	faProfile: ufld.Tiny,
	faTrain:   trainBudget{samples: 8, epochs: 1, batch: 4, lr: 2e-3},
	faWarm:    1, faFrames: 3, faVal: 4,

	tinyTrain: trainBudget{samples: 8, epochs: 1, batch: 4, lr: 2e-3},
	sbStreams: 2, sbWarm: 1, sbEpochs: 3,

	cpStreams: 32, cpFrames: 24, cpWarm: 1, cpRounds: 2,
	cpMoves: 2, cpCkpts: 4, cpBoards: 4,

	fcBoards: 2, fcStreams: 6, fcFrames: 10, fcFPS: 8, fcPlan: "kill:hot@1,join@2",
}

func toyEnv(t *testing.T) *env {
	t.Helper()
	cal := newCalibrator()
	t.Cleanup(cal.stop)
	return &env{seed: 1, seconds: 0.01, sz: toySizes, workers: 2, outDir: t.TempDir(), cal: cal}
}

func TestMetricAndWorkloadNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	setup := false
	for _, ms := range endToEnd {
		use(ms.Name)
		if !unit.MatchString(ms.Unit) {
			t.Errorf("%s: unit %q", ms.Name, ms.Unit)
		}
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", ms.Name, ms.Bound)
		}
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("%s: better %q", ms.Name, ms.Better)
		}
		setup = setup || (ms.Name == "setup_s" && ms.Unit == "s" && ms.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower")
	}
	for _, ms := range perLayer {
		use(ms.Name)
		if !unit.MatchString(ms.Unit) {
			t.Errorf("%s: unit %q", ms.Name, ms.Unit)
		}
		if ms.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", ms.Name)
		}
	}
	for _, ws := range workloadSpecs {
		use(ws.Name)
		if newWorkload(ws.Name) == nil {
			t.Errorf("workload %q is named but not implemented", ws.Name)
		}
		if len(ws.Why) == 0 || len(ws.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", ws.Name, len(ws.Why))
		}
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program measures %d", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json    %+v\n program %+v", doc.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", doc.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", doc.Paths)
	}
}

// checkDriverLine holds a run's last line to the driver's contract:
// exactly the four keys, and every metric of the kind exactly once
// with its unit.
func checkDriverLine(t *testing.T, r *result) {
	t.Helper()
	line, err := json.Marshal(r.driverLine())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := top[k]; !ok {
			t.Errorf("%s: result line lacks %q", r.Workload, k)
		}
	}
	if len(top) != 4 {
		t.Errorf("%s: result line has %d keys, want 4", r.Workload, len(top))
	}
	var got map[string]metricValue
	if err := json.Unmarshal(top["metrics"], &got); err != nil {
		t.Fatal(err)
	}
	specs := specsFor(r.Traced)
	if len(got) != len(specs) {
		t.Errorf("%s: %d metrics emitted, want %d", r.Workload, len(got), len(specs))
	}
	for _, ms := range specs {
		v, ok := got[ms.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", r.Workload, ms.Name)
		case v.Unit != ms.Unit:
			t.Errorf("%s: %s has unit %q, want %q", r.Workload, ms.Name, v.Unit, ms.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s is %v", r.Workload, ms.Name, v.Value)
		case !r.Traced && v.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", r.Workload, ms.Name)
		}
	}
	if r.Attempted < 1 {
		t.Errorf("%s: attempted %d", r.Workload, r.Attempted)
	}
}

func TestEveryWorkloadAtToySize(t *testing.T) {
	for _, ws := range workloadSpecs {
		ws := ws
		t.Run(ws.Name, func(t *testing.T) {
			first := runWorkload(toyEnv(t), ws.Name, false)
			tracedEnv := toyEnv(t)
			traced := runWorkload(tracedEnv, ws.Name, true)
			for _, r := range []*result{first, traced} {
				if !r.Correct {
					t.Errorf("traced=%v: %d of %d ops failed: %v", r.Traced, r.Failed, r.Attempted, r.Errors)
				}
				checkDriverLine(t, r)
			}
			// Fixed work: the counts and every other exact value of one
			// in-process run are those of the next.
			if len(first.Exact) == 0 || !reflect.DeepEqual(first.Exact, traced.Exact) {
				t.Errorf("exact values differ between an untraced and a traced run:\n %v\n %v", first.Exact, traced.Exact)
			}
			if _, err := os.Stat(filepath.Join(tracedEnv.outDir, ws.Name+".trace.json")); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
		})
	}
}

func TestTraceCheckCatchesBrokenTraces(t *testing.T) {
	tr := newTracer(8)
	tr.nextOp()
	root := tr.begin("bench.frame")
	child := tr.begin("layer.Call")
	tr.end(child)
	tr.end(root)
	if errs := tr.check("bench.frame", 0); len(errs) != 0 {
		t.Fatalf("sound trace reported %v", errs)
	}
	tr.spans[child].end = tr.spans[root].end + 10 // child now outlives its parent
	if errs := tr.check("bench.frame", 0); len(errs) == 0 {
		t.Error("a child outside its parent went unnoticed")
	}
	small := newTracer(1)
	small.nextOp()
	a := small.begin("bench.frame")
	b := small.begin("layer.Call") // dropped: the buffer is full
	small.end(b)
	small.end(a)
	if errs := small.check("bench.frame", 0); len(errs) == 0 {
		t.Error("a dropped span went unnoticed")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

func TestCompareFlagsRegressionAndInexactRepeats(t *testing.T) {
	mk := func(fps, hit float64) *resultSet {
		return &resultSet{Seed: 1, Runs: []*result{{
			Workload: "frame_adapt",
			Metrics:  map[string]float64{"frames_per_s": fps, "setup_s": 1},
			Exact:    map[string]float64{"deadline_hit_rate": hit},
		}}}
	}
	bound := 0.0
	for _, ms := range endToEnd {
		if ms.Name == "frames_per_s" {
			bound = ms.Bound
		}
	}
	if code := compareLoaded(mk(10, 1), mk(10*(1-bound/2), 1)); code != 0 {
		t.Errorf("half the bound slower is no regression, got exit %d", code)
	}
	if code := compareLoaded(mk(10, 1), mk(10*(1-2*bound), 1)); code != 1 {
		t.Errorf("twice the bound slower is a regression, got exit %d", code)
	}
	if code := compareLoaded(mk(10, 1), mk(10, 0.99)); code != 1 {
		t.Errorf("an exact value that moved must fail, got exit %d", code)
	}
}
