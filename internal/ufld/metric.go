package ufld

import (
	"math"

	"ldbnadapt/internal/tensor"
)

// AccuracyTolCells returns the matching tolerance in cell units.
// TuSimple counts a point correct within 20 px of 1280 (≈1.56 % of the
// image width); we keep the same fraction of the grid, with a floor of
// one cell so coarse grids are not impossibly strict.
func AccuracyTolCells(cfg Config) float64 {
	return math.Max(1.0, 0.0156*float64(cfg.GridCells))
}

// Accuracy computes the TuSimple-style lane accuracy of predictions
// against labels: the fraction of ground-truth lane points whose
// predicted location is present and within tolerance.
func Accuracy(cfg Config, preds []Prediction, samples []Sample, idx []int) float64 {
	tol := AccuracyTolCells(cfg)
	correct, total := 0, 0
	for bi, si := range idx {
		s := samples[si]
		for lane := 0; lane < cfg.Lanes; lane++ {
			for a := 0; a < cfg.RowAnchors; a++ {
				gt := s.Cells[lane*cfg.RowAnchors+a]
				if gt == Absent {
					continue
				}
				total++
				p := preds[bi].Points[lane][a]
				if p.Present && math.Abs(p.Cell-float64(gt)) <= tol {
					correct++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// EvalResult summarizes an evaluation pass.
type EvalResult struct {
	// Accuracy is the TuSimple-style point accuracy in [0, 1].
	Accuracy float64
	// MeanEntropy is the mean prediction entropy (nats per group) —
	// the quantity LD-BN-ADAPT minimizes; useful for diagnostics.
	MeanEntropy float64
	// Samples is the number of images evaluated.
	Samples int
}

// Evaluate runs the model over the whole dataset in batches through
// ForwardInfer, bitwise an Eval forward without its backward caches,
// and returns accuracy plus mean prediction entropy.
func Evaluate(m *Model, ds *Dataset, batchSize int) EvalResult {
	if batchSize < 1 {
		batchSize = 1
	}
	totalAccW, totalEnt := 0.0, 0.0
	points := 0
	n := ds.Len()
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x := Images(m.Cfg, ds.Samples, idx)
		logits := m.ForwardInfer(x)
		preds := Decode(m.Cfg, logits, len(idx))
		// Accumulate weighted by ground-truth point count so batches
		// combine exactly.
		cnt := 0
		for _, si := range idx {
			cnt += ds.Samples[si].Points()
		}
		totalAccW += Accuracy(m.Cfg, preds, ds.Samples, idx) * float64(cnt)
		points += cnt
		for _, h := range tensor.RowEntropy(tensor.SoftmaxRows(logits)) {
			totalEnt += h
		}
	}
	res := EvalResult{Samples: n}
	if points > 0 {
		res.Accuracy = totalAccW / float64(points)
	}
	res.MeanEntropy = totalEnt / float64(n*m.Cfg.Groups())
	return res
}
