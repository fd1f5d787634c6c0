// Command bench is the repo's benchmark: four named workloads, the
// end-to-end metrics a user of the system would see, and — with
// -trace 1 — per-layer metrics taken from outside, by timing the calls
// the harness makes into each layer's public functions. README.md in
// this directory has the tables; BENCHMARK.json at the repo root is the
// contract the driver reads.
//
//	bench -workload frame_adapt -seed 1 -seconds 10 -trace 0   one run, result JSON on the last line
//	bench [-trace 1] [-repeat N] [-results f.json]             every workload, N times over
//	bench -compare a.json b.json                               A/A (or A/B) comparison of two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

func (r *result) driverLine() driverLine {
	dl := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	for _, ms := range specsFor(r.Traced) {
		dl.Metrics[ms.Name] = metricValue{r.Metrics[ms.Name], ms.Unit}
	}
	return dl
}

// print writes the run for a human: every metric by name with its
// unit, then notes and check failures.
func (r *result) print() {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s  seed %d  %s  (%d blocks, %d ops attempted, %d failed)\n", r.Workload, r.Seed, kind, r.Blocks, r.Attempted, r.Failed)
	for _, ms := range specsFor(r.Traced) {
		fmt.Printf("  %-34s %16.6f %s\n", ms.Name, r.Metrics[ms.Name], ms.Unit)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Printf("  FAIL: %s\n", e)
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all four)")
		seed         = flag.Uint64("seed", 1, "drives all input generation; 2 is the documented hold-out")
		seconds      = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "1: traced run, per-layer metrics and span files; 0: end-to-end metrics")
		repeat       = flag.Int("repeat", 1, "run the whole set this many times, alternating workload order")
		compare      = flag.String("compare", "", "compare this result set with the one named by the next argument")
		results      = flag.String("results", "", "where a whole-set run writes its result set (default <out>/results.json)")
		outDir       = flag.String("out", "out", "directory for span files and result sets")
	)
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(compareSets(*compare, flag.Arg(0)))
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fatal("need -seconds > 0, -repeat >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	workers := runtime.NumCPU()
	if workers > 2 {
		workers = 2
	}
	cal := newCalibrator()
	defer cal.stop()
	newEnv := func() *env {
		return &env{seed: *seed, seconds: *seconds, sz: fullSizes, workers: workers, outDir: *outDir, cal: cal}
	}
	fmt.Printf("bench: nproc %d, GOMAXPROCS %d, %s, serving workers %d, seed %d, %.0f s per run\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workers, *seed, *seconds)

	if *workloadName != "" {
		if newWorkload(*workloadName) == nil {
			fatal("unknown workload %q", *workloadName)
		}
		r := runWorkload(newEnv(), *workloadName, *trace == 1)
		r.print()
		line, err := json.Marshal(r.driverLine())
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		if !r.Correct {
			os.Exit(1)
		}
		return
	}

	set := resultSet{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: *seed, Seconds: *seconds,
	}
	ok := true
	for rep := 0; rep < *repeat; rep++ {
		order := append([]workloadSpec(nil), workloadSpecs...)
		if rep%2 == 1 { // alternate the order so no workload always runs on a warm or a cold machine
			sort.SliceStable(order, func(i, j int) bool { return i > j })
		}
		for _, ws := range order {
			for traced := 0; traced <= *trace; traced++ {
				runtime.GC()
				r := runWorkload(newEnv(), ws.Name, traced == 1)
				r.print()
				set.Runs = append(set.Runs, r)
				ok = ok && r.Correct
			}
		}
	}
	path := *results
	if path == "" {
		path = filepath.Join(*outDir, "results.json")
	}
	if err := set.write(path); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("bench: %d runs written to %s\n", len(set.Runs), path)
	if !ok {
		fmt.Println("bench: FAILED — at least one check did not hold")
		os.Exit(1)
	}
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}
