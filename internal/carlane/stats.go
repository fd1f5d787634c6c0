package carlane

import (
	"fmt"
	"io"

	"ldbnadapt/internal/ufld"
)

// SplitStats summarizes one dataset split — the benchmark composition
// view of the paper's Fig. 1.
type SplitStats struct {
	// Name and Domain identify the split.
	Name, Domain string
	// N is the sample count.
	N int
	// MeanBrightness is the mean pixel value — the headline statistic
	// separating the domains.
	MeanBrightness float64
	// StdBrightness is the pixel standard deviation.
	StdBrightness float64
	// LabeledPoints counts present (lane, anchor) ground-truth points.
	LabeledPoints int
	// AbsentPoints counts Absent labels.
	AbsentPoints int
}

// ComputeStats scans a dataset.
func ComputeStats(ds *ufld.Dataset) SplitStats {
	st := SplitStats{Name: ds.Name, Domain: ds.Domain, N: ds.Len()}
	var sum, sumSq float64
	var count int
	for _, s := range ds.Samples {
		for _, v := range s.Image.Data {
			sum += float64(v)
			sumSq += float64(v) * float64(v)
			count++
		}
		labeled := s.Points()
		st.LabeledPoints += labeled
		st.AbsentPoints += len(s.Cells) - labeled
	}
	if count > 0 {
		st.MeanBrightness = sum / float64(count)
		v := sumSq/float64(count) - st.MeanBrightness*st.MeanBrightness
		if v > 0 {
			st.StdBrightness = sqrt(v)
		}
	}
	return st
}

func sqrt(v float64) float64 {
	// Newton iteration to avoid importing math for one call site.
	x := v
	for i := 0; i < 40; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// WriteBenchmarkTable prints the Fig. 1-style composition table of one
// benchmark to w.
func WriteBenchmarkTable(w io.Writer, b *Benchmark) {
	fmt.Fprintf(w, "%s (%d lanes, %dx%d input, %d cells x %d anchors)\n",
		b.Name, b.Cfg.Lanes, b.Cfg.InputH, b.Cfg.InputW, b.Cfg.GridCells, b.Cfg.RowAnchors)
	fmt.Fprintf(w, "  %-22s %-12s %6s %10s %8s %8s\n", "split", "domain", "n", "brightness", "points", "absent")
	for _, ds := range []*ufld.Dataset{b.SourceTrain, b.SourceVal, b.TargetTrain, b.TargetVal} {
		st := ComputeStats(ds)
		fmt.Fprintf(w, "  %-22s %-12s %6d %6.3f±%.3f %8d %8d\n",
			st.Name, st.Domain, st.N, st.MeanBrightness, st.StdBrightness, st.LabeledPoints, st.AbsentPoints)
	}
}
