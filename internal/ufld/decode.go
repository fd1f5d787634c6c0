package ufld

import (
	"ldbnadapt/internal/tensor"
)

// LanePoint is one decoded lane location on a row anchor.
type LanePoint struct {
	// Present reports whether the model predicts a lane on this anchor.
	Present bool
	// Cell is the continuous horizontal location in cell units
	// (expectation decode per the UFLD paper), valid when Present.
	Cell float64
}

// Prediction holds the decoded lanes of one image:
// Points[lane][anchor].
type Prediction struct {
	// Points is indexed [lane][anchor].
	Points [][]LanePoint
}

// Decode converts logits rows (as returned by Model.Forward) into
// per-sample predictions. Following UFLD: the "no lane" decision uses
// the argmax over all Classes; the location uses the expectation of
// the cell index under the softmax restricted to the location cells.
// The result is freshly allocated and safe to retain.
func Decode(cfg Config, logitsRows *tensor.Tensor, n int) []Prediction {
	return new(Decoder).Decode(cfg, logitsRows, n)
}

// Decoder is Decode with its storage kept between calls: the softmax
// row buffer, the Prediction slice and the one []LanePoint backing all
// lanes of each sample. The zero value is ready to use. A result is
// valid until the Decoder's next Decode, so a loop that scores each
// batch before decoding the next (the serving worker) allocates nothing
// in steady state.
type Decoder struct {
	row   []float32
	preds []Prediction
}

// Decode is the package-level Decode into the Decoder's storage.
func (d *Decoder) Decode(cfg Config, logitsRows *tensor.Tensor, n int) []Prediction {
	classes := cfg.Classes()
	if cap(d.row) < classes {
		d.row = make([]float32, classes)
	}
	p := d.row[:classes]
	for len(d.preds) < n {
		d.preds = append(d.preds, Prediction{})
	}
	preds := d.preds[:n]
	for ni := range preds {
		pts := preds[ni].Points
		if len(pts) != cfg.Lanes || len(pts[0]) != cfg.RowAnchors {
			flat := make([]LanePoint, cfg.Lanes*cfg.RowAnchors)
			pts = make([][]LanePoint, cfg.Lanes)
			for lane := range pts {
				pts[lane] = flat[lane*cfg.RowAnchors : (lane+1)*cfg.RowAnchors]
			}
			preds[ni].Points = pts
		}
		for lane := 0; lane < cfg.Lanes; lane++ {
			for a := 0; a < cfg.RowAnchors; a++ {
				pts[lane][a] = LanePoint{}
				row := (ni*cfg.Lanes+lane)*cfg.RowAnchors + a
				tensor.SoftmaxRow(p, logitsRows.Data[row*classes:(row+1)*classes])
				best := 0
				for j, v := range p {
					if v > p[best] {
						best = j
					}
				}
				if best == cfg.GridCells { // "no lane" class wins
					continue
				}
				// Expectation over location cells only.
				sum, loc := 0.0, 0.0
				for k := 0; k < cfg.GridCells; k++ {
					sum += float64(p[k])
					loc += float64(k) * float64(p[k])
				}
				if sum <= 0 {
					continue
				}
				pts[lane][a] = LanePoint{Present: true, Cell: loc / sum}
			}
		}
	}
	return preds
}

// CellToPixel converts a cell coordinate to an image-x pixel for the
// given configuration (cell centres are evenly spaced across the
// width).
func CellToPixel(cfg Config, cell float64) float64 {
	return (cell + 0.5) * float64(cfg.InputW) / float64(cfg.GridCells)
}
