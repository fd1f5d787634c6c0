//go:build retaincheck

package nn

import (
	"strings"
	"testing"

	"ldbnadapt/internal/tensor"
)

// TestRetainCheckCatchesChangedInput: under the retaincheck tag, a
// conv's Backward panics when the input its forward retained was
// written in between, and passes when it was not.
func TestRetainCheckCatchesChangedInput(t *testing.T) {
	rng := tensor.NewRNG(0x7e7)
	c := NewConv2D("c", 2, 3, tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}, false, rng)
	x := tensor.New(1, 2, 5, 5)
	rng.FillUniform(x, -1, 1)
	g := tensor.New(1, 3, 5, 5)
	rng.FillUniform(g, -1, 1)
	c.Forward(x, Adapt)
	c.Backward(g)
	c.Forward(x, Adapt)
	x.Data[7] += 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "changed between Forward and Backward") {
			t.Fatalf("Backward after the retained input changed: panic %q", msg)
		}
	}()
	c.Backward(g)
}
