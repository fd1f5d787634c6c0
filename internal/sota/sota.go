// Package sota implements the comparison baseline of the paper: the
// CARLANE-benchmark state-of-the-art unsupervised domain adaptation
// algorithm (Stuhr et al., NeurIPS 2022), as characterized in the
// paper's §II:
//
//	(i)   encode the semantic structure of source and target data into
//	      an embedding space, using K-means,
//	(ii)  transfer knowledge from source to target via the embeddings
//	      (cluster alignment + pseudo-labels), and
//	(iii) update ALL model parameters with backpropagation for several
//	      epochs.
//
// Unlike LD-BN-ADAPT it therefore requires labeled source data on the
// device, runs for tens of epochs × thousands of samples, and updates
// the full parameter set — accurate, but orders of magnitude too slow
// for real-time adaptation (the paper measures > 1 h per epoch on a
// Jetson Orin). The cost counters recorded here feed the Orin
// performance model that reproduces that claim.
package sota

import (
	"fmt"
	"io"
	"math"

	"ldbnadapt/internal/kmeans"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// Config controls the baseline.
type Config struct {
	// Epochs of full-network retraining (the paper's baseline uses ~10).
	Epochs int
	// BatchSize for both source and target mini-batches.
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// Clusters is K for the K-means semantic encoding.
	Clusters int
	// AlignWeight scales the embedding cluster-alignment loss.
	AlignWeight float64
	// PseudoWeight scales the pseudo-label cross-entropy on confident
	// target predictions.
	PseudoWeight float64
	// PseudoThreshold is the softmax confidence needed to accept a
	// pseudo-label.
	PseudoThreshold float64
	// ClipNorm bounds the gradient norm (0 disables).
	ClipNorm float64
	// RecalibrateBN runs a final statistics-only pass over the
	// unlabeled target data so the inference-time BN statistics match
	// the deployment domain (training interleaves source and target
	// batches, which leaves the running statistics blended between
	// domains). Standard practice in UDA pipelines.
	RecalibrateBN bool
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// DefaultConfig returns the settings used in the reproduction.
func DefaultConfig() Config {
	return Config{
		Epochs:          4,
		BatchSize:       8,
		LR:              1e-3,
		Clusters:        6,
		AlignWeight:     0.1,
		PseudoWeight:    0.5,
		PseudoThreshold: 0.95,
		ClipNorm:        10,
		RecalibrateBN:   true,
	}
}

// Cost tallies the work the baseline performed — the quantities that
// make it non-real-time. The Orin model prices these counters.
type Cost struct {
	// FullForwards counts complete model forward passes (one sample
	// each).
	FullForwards int64
	// FullBackwards counts complete model backward passes.
	FullBackwards int64
	// BackboneForwards counts backbone-only passes (embeddings).
	BackboneForwards int64
	// BackboneBackwards counts backbone-only backward passes.
	BackboneBackwards int64
	// KMeansPointIters counts point×iteration work in K-means.
	KMeansPointIters int64
	// LabeledSourceSamples is the number of labeled source samples the
	// baseline required on device (LD-BN-ADAPT needs zero).
	LabeledSourceSamples int
	// UpdatedParams is the number of parameters touched per step (the
	// full model).
	UpdatedParams int
}

// Result summarizes a baseline adaptation run.
type Result struct {
	// EpochLosses records the mean combined loss per epoch.
	EpochLosses []float64
	// FinalInertia is the K-means inertia of the last encoding pass.
	FinalInertia float64
	// PseudoLabelsAccepted counts confident target rows used.
	PseudoLabelsAccepted int64
	// Cost tallies the computational work.
	Cost Cost
}

// Adapter runs the baseline against a deployed model.
type Adapter struct {
	model *ufld.Model
	cfg   Config
}

// New wires the baseline to a model.
func New(m *ufld.Model, cfg Config) *Adapter { return &Adapter{model: m, cfg: cfg} }

// Name identifies the baseline (the paper's "CARLANE SOTA").
func (a *Adapter) Name() string { return "CARLANE-SOTA" }

// embedAll computes embeddings for every sample of a dataset.
func (a *Adapter) embedAll(ds *ufld.Dataset, cost *Cost) *tensor.Tensor {
	n := ds.Len()
	dim := a.model.Backbone().OutChannels()
	out := tensor.New(n, dim)
	bs := a.cfg.BatchSize
	for lo := 0; lo < n; lo += bs {
		hi := lo + bs
		if hi > n {
			hi = n
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x := ufld.Images(a.model.Cfg, ds.Samples, idx)
		emb := a.model.Embed(x, nn.Eval)
		copy(out.Data[lo*dim:hi*dim], emb.Data)
		cost.BackboneForwards += int64(hi - lo)
	}
	return out
}

// Run performs the full baseline adaptation: semantic encoding with
// K-means, knowledge transfer, pseudo-labeling and multi-epoch
// full-parameter retraining using labeled source AND unlabeled target
// data.
func (a *Adapter) Run(source, target *ufld.Dataset, rng *tensor.RNG) (*Result, error) {
	if source.Len() == 0 || target.Len() == 0 {
		return nil, fmt.Errorf("sota: empty source or target dataset")
	}
	if a.cfg.Epochs < 1 || a.cfg.BatchSize < 1 {
		return nil, fmt.Errorf("sota: bad config %+v", a.cfg)
	}
	res := &Result{}
	res.Cost.LabeledSourceSamples = source.Len()
	res.Cost.UpdatedParams = nn.ParamCount(a.model.Params())
	opt := nn.NewAdam(a.cfg.LR)
	params := a.model.Params()
	// The baseline retrains every parameter, whatever an adaptation
	// method wired to the model earlier may have frozen.
	nn.SetTrainable(params, params)
	m := a.model
	cfg := m.Cfg

	for epoch := 0; epoch < a.cfg.Epochs; epoch++ {
		// Step (i): semantic encoding — embeddings + K-means on the
		// source domain, recomputed every epoch as the features move.
		srcEmb := a.embedAll(source, &res.Cost)
		k := a.cfg.Clusters
		if k > source.Len() {
			k = source.Len()
		}
		km, err := kmeans.Run(srcEmb, kmeans.DefaultConfig(k), rng.Split())
		if err != nil {
			return nil, fmt.Errorf("sota: k-means: %w", err)
		}
		res.FinalInertia = km.Inertia
		res.Cost.KMeansPointIters += int64(km.Iterations) * int64(source.Len()) * int64(k)

		epochLoss := 0.0
		batches := 0
		perm := rng.Perm(source.Len())
		tgtPerm := rng.Perm(target.Len())
		tgtPos := 0
		for lo := 0; lo < len(perm); lo += a.cfg.BatchSize {
			hi := lo + a.cfg.BatchSize
			if hi > len(perm) {
				hi = len(perm)
			}
			srcIdx := perm[lo:hi]

			// Source pass: supervised UFLD objective (labeled source
			// data required on device — a key cost of this baseline).
			nn.ZeroGrads(params)
			x, targets := ufld.Batch(cfg, source.Samples, srcIdx)
			logits := m.Forward(x, nn.Train)
			loss, grad := nn.CrossEntropyRows(logits, targets)
			sl, sg := ufld.SimilarityLoss(cfg, logits, len(srcIdx))
			loss += 0.1 * sl
			tensor.AxpyInPlace(grad, 0.1, sg)
			m.Backward(grad)
			res.Cost.FullForwards += int64(len(srcIdx))
			res.Cost.FullBackwards += int64(len(srcIdx))

			// Target pass (ii): knowledge transfer — pull target
			// embeddings toward their assigned source centroid.
			tgtIdx := make([]int, 0, a.cfg.BatchSize)
			for len(tgtIdx) < a.cfg.BatchSize {
				tgtIdx = append(tgtIdx, tgtPerm[tgtPos%len(tgtPerm)])
				tgtPos++
			}
			tx := ufld.Images(cfg, target.Samples, tgtIdx)
			feats := m.Backbone().Forward(tx, nn.Train)
			n, c, fh, fw := feats.Dim(0), feats.Dim(1), feats.Dim(2), feats.Dim(3)
			hw := fh * fw
			emb := tensor.New(n, c)
			inv := 1.0 / float64(hw)
			for i := 0; i < n*c; i++ {
				s := 0.0
				for _, v := range feats.Data[i*hw : (i+1)*hw] {
					s += float64(v)
				}
				emb.Data[i] = float32(s * inv)
			}
			alignLoss := 0.0
			dEmb := tensor.New(n, c)
			for i := 0; i < n; i++ {
				cl := kmeans.AssignTo(km.Centroids, emb.Data[i*c:(i+1)*c])
				cent := km.Centroids.Data[cl*c : (cl+1)*c]
				for j := 0; j < c; j++ {
					d := float64(emb.Data[i*c+j]) - float64(cent[j])
					alignLoss += d * d
					dEmb.Data[i*c+j] = float32(2 * d * a.cfg.AlignWeight / float64(n*c))
				}
			}
			alignLoss *= a.cfg.AlignWeight / float64(n*c)
			loss += alignLoss
			// Spread the embedding gradient uniformly over the pooled
			// spatial positions and backprop through the backbone.
			dFeats := tensor.New(n, c, fh, fw)
			for i := 0; i < n*c; i++ {
				g := dEmb.Data[i] * float32(inv)
				dst := dFeats.Data[i*hw : (i+1)*hw]
				for j := range dst {
					dst[j] = g
				}
			}
			m.Backbone().Backward(dFeats)
			res.Cost.BackboneForwards += int64(n)
			res.Cost.BackboneBackwards += int64(n)

			// Target pass (iii): pseudo-labels on confident predictions.
			tLogits := m.Forward(tx, nn.Train)
			probs := tensor.SoftmaxRows(tLogits)
			classes := cfg.Classes()
			pseudo := make([]int, tLogits.Dim(0))
			accepted := int64(0)
			for r := 0; r < tLogits.Dim(0); r++ {
				row := probs.Data[r*classes : (r+1)*classes]
				best := 0
				for j, v := range row {
					if v > row[best] {
						best = j
					}
				}
				if float64(row[best]) >= a.cfg.PseudoThreshold {
					pseudo[r] = best
					accepted++
				} else {
					pseudo[r] = -1
				}
			}
			res.PseudoLabelsAccepted += accepted
			if accepted > 0 {
				pl, pgrad := nn.CrossEntropyRows(tLogits, pseudo)
				loss += a.cfg.PseudoWeight * pl
				tensor.ScaleInPlace(pgrad, float32(a.cfg.PseudoWeight))
				m.Backward(pgrad)
				res.Cost.FullBackwards += int64(n)
			}
			res.Cost.FullForwards += int64(n)

			// Step (iii): update ALL parameters.
			if a.cfg.ClipNorm > 0 {
				nn.ClipGradNorm(params, a.cfg.ClipNorm)
			}
			opt.Step(params)
			epochLoss += loss
			batches++
		}
		epochLoss /= math.Max(float64(batches), 1)
		res.EpochLosses = append(res.EpochLosses, epochLoss)
		if a.cfg.Log != nil {
			fmt.Fprintf(a.cfg.Log, "sota epoch %d/%d: loss %.4f (pseudo %d)\n",
				epoch+1, a.cfg.Epochs, epochLoss, res.PseudoLabelsAccepted)
		}
	}
	if a.cfg.RecalibrateBN {
		// Final statistics-only pass over the unlabeled target stream:
		// Adapt-mode forwards refresh the BN running statistics without
		// touching any weights (no backward pass, no optimizer step).
		for lo := 0; lo < target.Len(); lo += a.cfg.BatchSize {
			hi := lo + a.cfg.BatchSize
			if hi > target.Len() {
				hi = target.Len()
			}
			idx := make([]int, hi-lo)
			for i := range idx {
				idx[i] = lo + i
			}
			tx := ufld.Images(cfg, target.Samples, idx)
			m.Forward(tx, nn.Adapt)
			res.Cost.FullForwards += int64(hi - lo)
		}
	}
	return res, nil
}
