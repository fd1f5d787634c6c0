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
				rng.FillUniform(p.Grad, -1, 1)
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
