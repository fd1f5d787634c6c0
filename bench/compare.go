package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// resultSet is what a whole-set run stores: where it ran and every run
// it made. Two sets of the same code are an A/A comparison.
type resultSet struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Runs       []*result `json:"runs"`
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return fmt.Errorf("encoding result set: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result set: %w", err)
	}
	return nil
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading result set: %w", err)
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("reading result set %s: %w", path, err)
	}
	return &s, nil
}

// values collects one end-to-end metric of one workload over the
// untraced runs of a set.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r.Metrics[metric])
		}
	}
	return out
}

// exactOf returns the exact map of the first untraced run of a workload.
func (s *resultSet) exactOf(workload string) map[string]float64 {
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			return r.Exact
		}
	}
	return nil
}

// worsening is how much worse b is than a as a share of a, signed so
// that positive is worse whatever the metric's direction.
func worsening(ms metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if ms.Better == "higher" {
		d = -d
	}
	return d
}

// compareSets prints, per end-to-end metric and workload, both medians,
// each set's quartile spread and the bound, and returns the exit code:
// 1 when set b is worse than set a by more than a metric's bound, or
// when values that must repeat exactly (same seed) do not.
func compareSets(pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareLoaded(a, b)
}

func compareLoaded(a, b *resultSet) int {
	bad := 0
	fmt.Printf("%-14s %-26s %14s %14s %8s %8s %8s %7s\n", "workload", "metric", "median a", "median b", "spread a", "spread b", "worse", "bound")
	for _, ws := range workloadSpecs {
		for _, ms := range endToEnd {
			va, vb := a.values(ws.Name, ms.Name), b.values(ws.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			w := worsening(ms, ma, mb)
			verdict := ""
			if w > ms.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Printf("%-14s %-26s %14.6f %14.6f %7.2f%% %7.2f%% %+7.2f%% %6.0f%%%s\n",
				ws.Name, ms.Name, ma, mb, 100*quartileSpread(va), 100*quartileSpread(vb), 100*w, 100*ms.Bound, verdict)
		}
		if a.Seed != b.Seed {
			continue
		}
		ea, eb := a.exactOf(ws.Name), b.exactOf(ws.Name)
		for _, k := range sortedKeys(ea) {
			if vb, ok := eb[k]; ok && math.Float64bits(ea[k]) != math.Float64bits(vb) {
				fmt.Printf("%-14s %-26s %14v %14v   NOT EXACT\n", ws.Name, k, ea[k], vb)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("bench: %d pairings differ by more than their bound\n", bad)
		return 1
	}
	fmt.Println("bench: the two sets agree within every bound")
	return 0
}
