package nn

import (
	"fmt"
	"math"

	"ldbnadapt/internal/tensor"
)

// CrossEntropyRows computes the mean softmax cross-entropy over the
// rows of logits [rows, classes] against integer targets, returning the
// scalar loss and dL/dlogits. A target of -1 marks a row to ignore
// (contributes neither loss nor gradient).
func CrossEntropyRows(logits *tensor.Tensor, targets []int) (float64, *tensor.Tensor) {
	if logits.NDim() != 2 {
		panic(fmt.Sprintf("nn: CrossEntropyRows needs 2-D logits, got %v", logits.Shape()))
	}
	rows, classes := logits.Dim(0), logits.Dim(1)
	if len(targets) != rows {
		panic(fmt.Sprintf("nn: CrossEntropyRows got %d targets for %d rows", len(targets), rows))
	}
	probs := tensor.SoftmaxRows(logits)
	grad := tensor.New(rows, classes)
	loss := 0.0
	active := 0
	for i, t := range targets {
		if t < 0 {
			continue
		}
		if t >= classes {
			panic(fmt.Sprintf("nn: target %d out of range (classes=%d)", t, classes))
		}
		active++
		p := probs.At(i, t)
		loss -= math.Log(math.Max(float64(p), 1e-12))
		for j := 0; j < classes; j++ {
			grad.Set(probs.At(i, j), i, j)
		}
		grad.Set(probs.At(i, t)-1, i, t)
	}
	if active == 0 {
		return 0, grad
	}
	inv := float32(1.0 / float64(active))
	tensor.ScaleInPlace(grad, inv)
	return loss / float64(active), grad
}

// LossScratch is the caller-owned storage the …LossInto forms write
// into: the gradient tensor they return and one row of log
// probabilities. The zero value is ready to use; a returned gradient is
// valid until the scratch's next use.
type LossScratch struct {
	grad Scratch
	logp []float64
}

// EntropyLoss computes the mean Shannon entropy of softmax(logits) over
// rows and its gradient w.r.t. the logits. This is the fully
// unsupervised objective of LD-BN-ADAPT (and of TENT): minimizing
// prediction entropy sharpens decisions on unlabeled target data.
//
// For one row with probabilities p and entropy H = −Σ p log p the
// gradient w.r.t. logit z_k is −p_k (log p_k + H).
func EntropyLoss(logits *tensor.Tensor) (float64, *tensor.Tensor) {
	return EntropyLossInto(new(LossScratch), logits)
}

// EntropyLossInto is EntropyLoss with the gradient in ws: a
// steady-state caller at a stable logits shape allocates nothing.
func EntropyLossInto(ws *LossScratch, logits *tensor.Tensor) (float64, *tensor.Tensor) {
	if logits.NDim() != 2 {
		panic(fmt.Sprintf("nn: EntropyLoss needs 2-D logits, got %v", logits.Shape()))
	}
	rows, classes := logits.Dim(0), logits.Dim(1)
	grad := ws.grad.For(rows, classes)
	if cap(ws.logp) < classes {
		ws.logp = make([]float64, classes)
	}
	logp := ws.logp[:classes] // fully overwritten each row
	total := 0.0
	inv := 1.0 / float64(rows)
	for i := 0; i < rows; i++ {
		// The row's probabilities land in its gradient slot and are
		// overwritten element by element once H is known.
		g := grad.Data[i*classes : (i+1)*classes]
		tensor.SoftmaxRow(g, logits.Data[i*classes:(i+1)*classes])
		h := 0.0
		for j, pv := range g {
			lp := math.Log(math.Max(float64(pv), 1e-12))
			logp[j] = lp
			h -= float64(pv) * lp
		}
		total += h
		for j, pv := range g {
			g[j] = float32(-float64(pv) * (logp[j] + h) * inv)
		}
	}
	return total * inv, grad
}

// ConfidenceLossInto is the negative mean max-probability objective, an
// alternative unsupervised loss used by the ablation study: maximizing
// the winning class's probability also sharpens predictions.
// Returns the loss −mean_i max_c p_ic and its logit gradient, held in
// ws.
func ConfidenceLossInto(ws *LossScratch, logits *tensor.Tensor) (float64, *tensor.Tensor) {
	if logits.NDim() != 2 {
		panic(fmt.Sprintf("nn: ConfidenceLossInto needs 2-D logits, got %v", logits.Shape()))
	}
	rows, classes := logits.Dim(0), logits.Dim(1)
	grad := ws.grad.For(rows, classes)
	total := 0.0
	inv := 1.0 / float64(rows)
	for i := 0; i < rows; i++ {
		g := grad.Data[i*classes : (i+1)*classes]
		tensor.SoftmaxRow(g, logits.Data[i*classes:(i+1)*classes])
		best := 0
		for j, pv := range g {
			if pv > g[best] {
				best = j
			}
		}
		pm := float64(g[best])
		total -= pm
		// d(−p_m)/dz_k = −p_m (δ_km − p_k)
		for j, pv := range g {
			d := -pm * (-float64(pv))
			if j == best {
				d = -pm * (1 - float64(pv))
			}
			g[j] = float32(d * inv)
		}
	}
	return total * inv, grad
}
