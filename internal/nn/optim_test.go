package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"ldbnadapt/internal/tensor"
)

// TestOptimizerFingerprint pins the Adam and SGD update rules across
// commits: each optimizer steps three params of odd sizes twenty times
// under seeded gradients, and the SHA-256 of the final values must match
// the constant. Folding (1−β) into a constant, dropping the weight-decay
// term or reordering one product turns it red.
func TestOptimizerFingerprint(t *testing.T) {
	adamWD := NewAdam(1e-2)
	adamWD.WeightDecay = 0.5
	for _, row := range []struct {
		name string
		opt  Optimizer
		want string
	}{
		{"adam", NewAdam(1e-2), "9c55885d31e7843f3ec41083cd6c6cb94afb34bfbaace7de355e994248686f42"},
		{"adam weight decay 0.5", adamWD, "4c303b2b93c4f517570adb181cac2cb5d4746324efd591e84f1c1b4ec1a590d0"},
		{"sgd momentum 0.9 weight decay 0.5", NewSGD(1e-2, 0.9, 0.5), "d1e32abcb1bb05d95b02092d8f933d70b1844f31924d6cf37a8446b2f8b36a27"},
	} {
		rng := tensor.NewRNG(29)
		var params []*Param
		st := NewOptState(3 + 7 + 13)
		for i, n := range []int{3, 7, 13} {
			v := tensor.New(n)
			rng.FillUniform(v, -1, 1)
			params = append(params, NewParam(fmt.Sprintf("p%d", i), v))
		}
		for step := 0; step < 20; step++ {
			for _, p := range params {
				rng.FillUniform(p.EnsureGrad(), -1, 1)
			}
			row.opt.Step(params, &st)
		}
		h := sha256.New()
		for _, p := range params {
			_ = binary.Write(h, binary.LittleEndian, p.Value.Data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != row.want {
			t.Errorf("%s: fingerprint %s, want %s", row.name, got, row.want)
		}
	}
}

// TestOptimizerStateSizeMismatchPanics: stepping state laid out for one
// params slice over another of a different total size is a bug the
// optimizers refuse, naming both sizes, instead of silently misaligning
// the flat offsets.
func TestOptimizerStateSizeMismatchPanics(t *testing.T) {
	params := []*Param{NewParam("a", tensor.New(3)), NewParam("b", tensor.New(4))}
	for _, opt := range []Optimizer{NewAdam(1e-2), NewSGD(1e-2, 0.9, 0)} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "state holds 6 values, params hold 7") {
					t.Fatalf("%T: panic %q", opt, msg)
				}
			}()
			st := NewOptState(6)
			opt.Step(params, &st)
		}()
	}
}

// TestNilGradReadsAsZeros: a parameter no Backward has written holds
// no Grad, and the optimizers, ClipGradNorm and ZeroGrad treat it as a
// zero gradient: the same values and state, bit for bit, as a twin
// whose Grad is allocated and zero, weight decay and momentum included.
func TestNilGradReadsAsZeros(t *testing.T) {
	adamWD := NewAdam(1e-2)
	adamWD.WeightDecay = 0.5
	for _, opt := range []Optimizer{adamWD, NewSGD(1e-2, 0.9, 0.5)} {
		rng := tensor.NewRNG(31)
		v := tensor.New(5)
		rng.FillUniform(v, -1, 1)
		lazy, zero := NewParam("w", v.Clone()), NewParam("w", v.Clone())
		zero.EnsureGrad()
		sl, sz := NewOptState(5), NewOptState(5)
		rng.FillUniform(tensor.FromSlice(sl.M, 5), -1, 1)
		copy(sz.M, sl.M)
		for step := 0; step < 3; step++ {
			ZeroGrads([]*Param{lazy, zero})
			if n := ClipGradNorm([]*Param{lazy}, 1); n != 0 {
				t.Fatalf("%T: a nil Grad's norm reads %v", opt, n)
			}
			opt.Step([]*Param{lazy}, &sl)
			opt.Step([]*Param{zero}, &sz)
		}
		if lazy.Grad != nil {
			t.Fatalf("%T: the optimizer allocated a Grad", opt)
		}
		for i := range v.Data {
			if lazy.Value.Data[i] != zero.Value.Data[i] || sl.M[i] != sz.M[i] || sl.V[i] != sz.V[i] {
				t.Fatalf("%T: element %d differs from the zero-gradient twin", opt, i)
			}
		}
	}
}

// TestBackwardAllocatesOnlyTrainableGrads: every layer's parameters
// start without a Grad, and a Backward allocates exactly the unfrozen
// ones'.
func TestBackwardAllocatesOnlyTrainableGrads(t *testing.T) {
	rng := tensor.NewRNG(33)
	conv := NewConv2D("c", 2, 3, tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}, true, rng)
	bn := NewBatchNorm2D("b", 3)
	fc := NewLinear("f", 3*4*4, 5, rng)
	net := NewSequential("net", conv, bn, NewReLU("r"), NewFlatten("fl"), fc)
	for _, p := range net.Params() {
		if p.Grad != nil {
			t.Fatalf("%s: a new layer holds a Grad", p.Name)
		}
	}
	conv.Weight.Frozen, bn.Gamma.Frozen, fc.Bias.Frozen = true, true, true
	x := tensor.New(2, 2, 4, 4)
	rng.FillUniform(x, -1, 1)
	g := tensor.New(2, 5)
	rng.FillUniform(g, -1, 1)
	net.Forward(x, Train)
	net.Backward(g)
	for _, p := range net.Params() {
		if (p.Grad != nil) == p.Frozen {
			t.Fatalf("%s: frozen %v, holds a Grad %v", p.Name, p.Frozen, p.Grad != nil)
		}
	}
}
