package resnet

import (
	"math"
	"strings"
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
)

// refBlock is the residual tail BasicBlock had before it retained its
// output: a scalar add, a scalar ReLU and a []bool mask, around the
// same sublayers.
type refBlock struct {
	b    *BasicBlock
	mask []bool
}

func (r *refBlock) forward(x *tensor.Tensor, mode nn.Mode) *tensor.Tensor {
	b := r.b
	main := b.bn2.Forward(b.conv2.Forward(b.relu1.Forward(b.bn1.Forward(b.conv1.Forward(x, mode), mode), mode), mode), mode)
	short := x
	if b.dsConv != nil {
		short = b.dsBN.Forward(b.dsConv.Forward(x, mode), mode)
	}
	if mode.IsInfer() {
		r.mask = nil
		for i := range main.Data {
			main.Data[i] += short.Data[i]
		}
		for i, v := range main.Data {
			if v <= 0 {
				main.Data[i] = 0
			}
		}
		return main
	}
	out := tensor.New(main.Shape()...)
	r.mask = make([]bool, out.Size())
	for i := range out.Data {
		if v := main.Data[i] + short.Data[i]; v > 0 {
			out.Data[i] = v
			r.mask[i] = true
		}
	}
	return out
}

func (r *refBlock) backward(grad *tensor.Tensor) *tensor.Tensor {
	b := r.b
	d := tensor.New(grad.Shape()...)
	for i, v := range grad.Data {
		if r.mask[i] {
			d.Data[i] = v
		}
	}
	dm := b.conv1.Backward(b.bn1.Backward(b.relu1.Backward(b.conv2.Backward(b.bn2.Backward(d)))))
	ds := d
	if b.dsConv != nil {
		ds = b.dsConv.Backward(b.dsBN.Backward(d))
	}
	out := dm.Clone()
	for i := range out.Data {
		out.Data[i] += ds.Data[i]
	}
	return out
}

// edgeBlock builds a block whose residual sum hits the values a
// select can get wrong. With conv2's filter zeroed, bn2 emits γ·0 + β
// on that channel, so: channel 0 (γ 1, β +0) adds +0 to the shortcut
// and passes its exact zeros and −0 through; channel 1 (γ −1, β −0)
// adds −0; channel 2 (β NaN) is NaN everywhere; the rest are ordinary.
func edgeBlock(inC, outC, stride int) *BasicBlock {
	b := NewBasicBlock("blk", inC, outC, stride, tensor.NewRNG(0xb10c))
	negZero := math.Float32frombits(1 << 31)
	k := b.conv2.Weight.Value.Size() / outC
	for i := 0; i < 2*k; i++ {
		b.conv2.Weight.Value.Data[i] = 0
	}
	b.bn2.Gamma.Value.Data[1], b.bn2.Beta.Value.Data[1] = -1, negZero
	b.bn2.Beta.Value.Data[2] = float32(math.NaN())
	return b
}

// sameFloats is bit equality, except that a NaN only has to be a NaN:
// its payload after an add depends on operand order.
func sameFloats(want, got []float32) int {
	for i := range want {
		if want[i] != want[i] && got[i] != got[i] {
			continue
		}
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			return i
		}
	}
	return -1
}

func TestBasicBlockMatchesMaskReference(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	for _, shape := range []struct{ inC, outC, stride int }{{4, 4, 1}, {4, 8, 2}} {
		for _, mode := range []nn.Mode{nn.Infer, nn.Adapt, nn.Train, nn.Eval} {
			blk, twin := edgeBlock(shape.inC, shape.outC, shape.stride), edgeBlock(shape.inC, shape.outC, shape.stride)
			ref := &refBlock{b: twin}
			rng := tensor.NewRNG(0x5eed)
			x := tensor.New(2, shape.inC, 6, 6)
			rng.FillUniform(x, -2, 2)
			for i := 0; i < len(x.Data); i += 3 {
				x.Data[i] = [2]float32{0, negZero}[(i/3)%2]
			}
			want := ref.forward(x.Clone(), mode).Clone()
			got := blk.Forward(x.Clone(), mode)
			if i := sameFloats(want.Data, got.Data); i >= 0 {
				t.Fatalf("%+v mode=%v: output %d is %x, mask reference gives %x", shape, mode, i,
					math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
			}
			// Channel 2 is NaN before the ReLU: Infer keeps it, every
			// other mode zeroes it.
			plane := got.Dim(2) * got.Dim(3)
			for _, v := range got.Data[2*plane : 3*plane] {
				if kept := v != v; kept != mode.IsInfer() || (!kept && math.Float32bits(v) != 0) {
					t.Fatalf("%+v mode=%v: NaN residual came out as %v", shape, mode, v)
				}
			}
			zeros := 0
			for _, v := range got.Data {
				if v == 0 {
					zeros++
				}
			}
			if zeros == 0 || zeros == got.Size() {
				t.Fatalf("%+v mode=%v: fixture is not discriminating: %d of %d outputs are zero", shape, mode, zeros, got.Size())
			}
			grad := tensor.New(got.Shape()...)
			rng.FillUniform(grad, -1, 1)
			if mode.IsInfer() {
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "resnet: blk: Backward before Forward") {
							t.Fatalf("%+v: Backward after an Infer forward: panic %q", shape, msg)
						}
					}()
					blk.Backward(grad)
				}()
				continue
			}
			nn.ZeroGrads(blk.Params())
			nn.ZeroGrads(twin.Params())
			if i := sameFloats(ref.backward(grad).Data, blk.Backward(grad).Data); i >= 0 {
				t.Fatalf("%+v mode=%v: dX element %d differs from the mask reference", shape, mode, i)
			}
			for pi, p := range blk.Params() {
				if i := sameFloats(twin.Params()[pi].Grad.Data, p.Grad.Data); i >= 0 {
					t.Fatalf("%+v mode=%v: %s gradient element %d differs from the mask reference", shape, mode, p.Name, i)
				}
			}
		}
	}
}
