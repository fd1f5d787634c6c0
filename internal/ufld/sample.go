package ufld

import (
	"fmt"

	"ldbnadapt/internal/tensor"
)

// Absent marks a row anchor with no lane in a label vector.
const Absent = -1

// Sample is one labeled image: the input tensor and, for every
// (lane, anchor) pair, the ground-truth cell index (or Absent).
// Unsupervised consumers simply ignore Cells.
type Sample struct {
	// Image has shape [3, H, W] with values in [0, 1].
	Image *tensor.Tensor
	// Cells is indexed lane·RowAnchors+anchor; values in
	// [0, GridCells) or Absent.
	Cells []int
}

// Points counts the labeled ground-truth points of s: the cells that
// are not Absent.
func (s Sample) Points() int {
	n := 0
	for _, c := range s.Cells {
		if c != Absent {
			n++
		}
	}
	return n
}

// Dataset is an ordered collection of samples from one domain.
type Dataset struct {
	// Name identifies the split (e.g. "molane/target-val").
	Name string
	// Domain is "sim", "molane-real" or "tulane-real".
	Domain string
	// Samples holds the data.
	Samples []Sample
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Batch assembles samples[idx] into an input tensor [len(idx),3,H,W]
// and the concatenated target cells (one entry per logits row).
func Batch(cfg Config, samples []Sample, idx []int) (*tensor.Tensor, []int) {
	if len(idx) == 0 {
		panic("ufld: empty batch")
	}
	x := tensor.New(len(idx), 3, cfg.InputH, cfg.InputW)
	copyImages(cfg, x, samples, idx)
	targets := make([]int, 0, len(idx)*cfg.Groups())
	for _, si := range idx {
		s := samples[si]
		if len(s.Cells) != cfg.Groups() {
			panic(fmt.Sprintf("ufld: sample %d has %d cells, want %d", si, len(s.Cells), cfg.Groups()))
		}
		for _, c := range s.Cells {
			if c == Absent {
				targets = append(targets, cfg.GridCells) // "no lane" class
			} else {
				targets = append(targets, c)
			}
		}
	}
	return x, targets
}

// checkImage panics unless sample si carries a [3,H,W] image.
func checkImage(cfg Config, s Sample, si int) {
	if s.Image.Size() != 3*cfg.InputH*cfg.InputW {
		panic(fmt.Sprintf("ufld: sample %d image %v, want [3,%d,%d]", si, s.Image.Shape(), cfg.InputH, cfg.InputW))
	}
}

// copyImages copies the images of samples[idx] into the rows of x.
func copyImages(cfg Config, x *tensor.Tensor, samples []Sample, idx []int) {
	chw := 3 * cfg.InputH * cfg.InputW
	for bi, si := range idx {
		checkImage(cfg, samples[si], si)
		copy(x.Data[bi*chw:(bi+1)*chw], samples[si].Image.Data)
	}
}

// Images assembles an unlabeled input batch [len(idx),3,H,W]. The
// result is read-only: for a single index it is a header over the
// sample's own image storage (the per-frame paper loop would otherwise
// allocate, zero and copy a whole image just to hand it to a forward
// pass that only reads it); larger batches are copied.
func Images(cfg Config, samples []Sample, idx []int) *tensor.Tensor {
	if len(idx) == 0 {
		panic("ufld: empty batch")
	}
	if len(idx) == 1 {
		checkImage(cfg, samples[idx[0]], idx[0])
		return tensor.FromSlice(samples[idx[0]].Image.Data, 1, 3, cfg.InputH, cfg.InputW)
	}
	x := tensor.New(len(idx), 3, cfg.InputH, cfg.InputW)
	copyImages(cfg, x, samples, idx)
	return x
}
