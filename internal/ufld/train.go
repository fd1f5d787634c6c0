package ufld

import (
	"fmt"
	"io"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
)

// TrainConfig controls supervised source-domain training.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the mini-batch size.
	BatchSize int
	// LR is the learning rate (Adam).
	LR float64
	// SimWeight weights the UFLD similarity structural loss.
	SimWeight float64
	// ShapeWeight weights the UFLD shape structural loss.
	ShapeWeight float64
	// ClipNorm bounds the global gradient norm (0 disables).
	ClipNorm float64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// DefaultTrainConfig returns the settings used by the repro profile.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:      6,
		BatchSize:   8,
		LR:          2e-3,
		SimWeight:   0.1,
		ShapeWeight: 0.01,
		ClipNorm:    10,
	}
}

// TrainSource trains the model on labeled source-domain data with the
// UFLD objective (group cross-entropy + structural losses), exactly as
// the paper's models are pre-trained on CARLA simulation data before
// deployment. Returns the final epoch's mean training loss.
func TrainSource(m *Model, train *Dataset, tc TrainConfig, rng *tensor.RNG) (float64, error) {
	if train.Len() == 0 {
		return 0, fmt.Errorf("ufld: empty training set")
	}
	if tc.BatchSize < 1 {
		return 0, fmt.Errorf("ufld: batch size %d", tc.BatchSize)
	}
	opt := nn.NewAdam(tc.LR)
	params := m.Params()
	// Training steps every parameter, whatever an adaptation method
	// wired to m earlier may have frozen.
	nn.SetTrainable(params, params)
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
			x, targets := Batch(m.Cfg, train.Samples, idx)
			nn.ZeroGrads(params)
			logits := m.Forward(x, nn.Train)
			loss, grad := nn.CrossEntropyRows(logits, targets)
			if tc.SimWeight > 0 {
				sl, sg := SimilarityLoss(m.Cfg, logits, len(idx))
				loss += tc.SimWeight * sl
				tensor.AxpyInPlace(grad, float32(tc.SimWeight), sg)
			}
			if tc.ShapeWeight > 0 {
				pl, pg := ShapeLoss(m.Cfg, logits, len(idx))
				loss += tc.ShapeWeight * pl
				tensor.AxpyInPlace(grad, float32(tc.ShapeWeight), pg)
			}
			m.Backward(grad)
			if tc.ClipNorm > 0 {
				nn.ClipGradNorm(params, tc.ClipNorm)
			}
			opt.Step(params)
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		if tc.Log != nil {
			fmt.Fprintf(tc.Log, "epoch %d/%d: loss %.4f\n", epoch+1, tc.Epochs, epochLoss)
		}
	}
	return epochLoss, nil
}
