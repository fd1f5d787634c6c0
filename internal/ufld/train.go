package ufld

import (
	"fmt"
	"io"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
)

// The source-training objective's fixed weights.
const (
	// simWeight weights the UFLD similarity structural loss.
	simWeight = 0.1
	// shapeWeight weights the UFLD shape structural loss.
	shapeWeight = 0.01
	// clipNorm bounds the global gradient norm.
	clipNorm = 10
)

// TrainConfig controls supervised source-domain training.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the mini-batch size.
	BatchSize int
	// LR is the learning rate (Adam).
	LR float64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// DefaultTrainConfig returns the settings used by the repro profile.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 6, BatchSize: 8, LR: 2e-3}
}

// TrainSource trains the model on labeled source-domain data with the
// UFLD objective (group cross-entropy + structural losses), exactly as
// the paper's models are pre-trained on CARLA simulation data before
// deployment. Returns the final epoch's mean training loss.
//
// The training runs on a working copy of m, and only its result — the
// parameter values, the BN running statistics and momenta — is
// written back into m, whose weight caches are then dropped. The
// activation caches, the backward scratches and the optimizer state
// die with the copy, so a deployed model holds its weights, its BN
// state and one frame's working set, and nothing of its training. Every parameter of m is left trainable, whatever an
// adaptation method wired to m earlier may have frozen.
func TrainSource(m *Model, train *Dataset, tc TrainConfig, rng *tensor.RNG) (float64, error) {
	if train.Len() == 0 {
		return 0, fmt.Errorf("ufld: empty training set")
	}
	if tc.BatchSize < 1 {
		return 0, fmt.Errorf("ufld: batch size %d", tc.BatchSize)
	}
	nn.SetTrainable(m.Params(), m.Params())
	w := m.Clone(tensor.NewRNG(0)) // its own RNG: rng's draws stay the training's
	opt := nn.NewAdam(tc.LR)
	params := w.Params()
	st := nn.NewOptState(nn.ParamCount(params))
	var epochLoss float64
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		perm := rng.Perm(train.Len())
		epochLoss = 0
		batches := 0
		for lo := 0; lo < len(perm); lo += tc.BatchSize {
			hi := lo + tc.BatchSize
			if hi > len(perm) {
				hi = len(perm)
			}
			idx := perm[lo:hi]
			x, targets := Batch(w.Cfg, train.Samples, idx)
			nn.ZeroGrads(params)
			logits := w.Forward(x, nn.Train)
			loss, grad := nn.CrossEntropyRows(logits, targets)
			sl, sg := SimilarityLoss(w.Cfg, logits, len(idx))
			loss += simWeight * sl
			tensor.AxpyInPlace(grad, simWeight, sg)
			pl, pg := ShapeLoss(w.Cfg, logits, len(idx))
			loss += shapeWeight * pl
			tensor.AxpyInPlace(grad, shapeWeight, pg)
			w.Backward(grad)
			nn.ClipGradNorm(params, clipNorm)
			opt.Step(params, &st)
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		if tc.Log != nil {
			fmt.Fprintf(tc.Log, "epoch %d/%d: loss %.4f\n", epoch+1, tc.Epochs, epochLoss)
		}
	}
	copyState(m, w)
	m.InvalidateWeightCaches()
	return epochLoss, nil
}
