//go:build retaincheck

package nn

import (
	"fmt"
	"math"
)

// retained keeps a copy of the input a Train, Eval or Adapt conv
// forward retains, and Backward panics when the input changed since:
// dW re-lowers it, so a caller that overwrote it would get the gradient
// of other data. Compiled in only under the retaincheck build tag
// (make retain-check); the default build's retained does nothing.
type retained struct {
	copy []float32
}

func (r *retained) keep(x []float32) { r.copy = append(r.copy[:0], x...) }

func (r *retained) check(layer string, x []float32) {
	if len(x) != len(r.copy) {
		panic(fmt.Sprintf("nn: %s: retained input holds %d values at Backward, %d at Forward", layer, len(x), len(r.copy)))
	}
	for i, v := range x {
		if math.Float32bits(v) != math.Float32bits(r.copy[i]) {
			panic(fmt.Sprintf("nn: %s: retained input element %d changed between Forward and Backward", layer, i))
		}
	}
}
