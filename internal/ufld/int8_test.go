package ufld

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
)

// TestInt8ForwardWithinDocumentedBound pins the end-to-end error model
// of the int8 inference rung (internal/nn/README.md): through the full
// detector — conv stacks, float32 BN/ReLU/pool, the FC head — the int8
// logits stay within 8% of the float32 logit range on seeded inputs.
// Measured 2.8–4.4% across these seeds; 8% leaves recalibration slack
// while still catching a broken scale, a stale weight cache, or a
// quantized layer that silently saturates.
func TestInt8ForwardWithinDocumentedBound(t *testing.T) {
	for _, seed := range []uint64{3, 17, 91, 200} {
		cfg := Tiny(resnet.R18, 2)
		m := MustNewModel(cfg, tensor.NewRNG(seed))
		x := tensor.New(3, 3, cfg.InputH, cfg.InputW)
		tensor.NewRNG(seed+1).FillNormal(x, 0.4, 0.3)

		fp := m.ForwardInfer(x).Clone() // infer paths share scratch
		q8 := m.ForwardInferInt8(x)

		maxAbs, maxDiff := 0.0, 0.0
		for i, v := range fp.Data {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
			if d := math.Abs(float64(v - q8.Data[i])); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 0.08*maxAbs {
			t.Fatalf("seed %d: int8 logits deviate %g (%.1f%% of float range %g), documented bound is 8%%",
				seed, maxDiff, 100*maxDiff/maxAbs, maxAbs)
		}
	}
}

// TestInt8ForwardBatchedMatchesSequential: the per-sample activation
// scales make the batched int8 forward bitwise-identical to running
// each frame alone — the whole-model version of the kernel-level pin,
// and the property that lets the serving engine coalesce frames from
// different streams onto the int8 rung with zero numeric coupling.
func TestInt8ForwardBatchedMatchesSequential(t *testing.T) {
	cfg := Tiny(resnet.R18, 2)
	m := MustNewModel(cfg, tensor.NewRNG(31))
	const n = 3
	x := tensor.New(n, 3, cfg.InputH, cfg.InputW)
	tensor.NewRNG(32).FillNormal(x, 0.4, 0.3)

	batched := m.ForwardInferInt8(x).Clone()
	rows, classes := cfg.Groups(), cfg.Classes()
	chw := 3 * cfg.InputH * cfg.InputW
	for i := 0; i < n; i++ {
		xi := tensor.FromSlice(append([]float32(nil), x.Data[i*chw:(i+1)*chw]...), 1, 3, cfg.InputH, cfg.InputW)
		yi := m.ForwardInferInt8(xi)
		for r := 0; r < rows; r++ {
			for c := 0; c < classes; c++ {
				if got, want := batched.At(i*rows+r, c), yi.At(r, c); got != want {
					t.Fatalf("sample %d row %d class %d: batched %g != solo %g", i, r, c, got, want)
				}
			}
		}
	}
}

// TestInt8Fingerprint pins every bit of the int8 rung's logits across
// commits: Tiny R-18 at batch 1 and 4 and Small R-18 and R-34 at batch
// 1 and 2, each from seeded weights and inputs, hashed with SHA-256.
// The int32 sums are exact, so a change of lowering, kernel, banding or
// tier may move no bit; a change of quantization or of the scale
// expression turns it red. make fingerprints runs it at -cpu 1,2,4 and
// under purego.
func TestInt8Fingerprint(t *testing.T) {
	for _, row := range []struct {
		cfg  Config
		name string
		n    int
		want string
	}{
		{Tiny(resnet.R18, 2), "tiny-r18", 1, "a1a7877cbe40fbe020f2be477ec4b386a73f9fbf7aaf8cc83954ceaf6e4e9729"},
		{Tiny(resnet.R18, 2), "tiny-r18", 4, "8859ea1f461e15f5247b91747643aa3f3122407de75f7e8cfc88d972de4e7203"},
		{Small(resnet.R18, 2), "small-r18", 1, "84ffe6b0c6a09c63f2ac90ecf341983646b1752a15a0620ac66fb63ed103aca5"},
		{Small(resnet.R18, 2), "small-r18", 2, "b9182c67b12d8de3e3ea6e27aed91e1a384fe5a949ffc1e58fba0865854dd773"},
		{Small(resnet.R34, 2), "small-r34", 1, "9c47a1423e405ba087163dbc1e46d2b4769eaee0ed379d00d568f7006c2aeffa"},
		{Small(resnet.R34, 2), "small-r34", 2, "1ce0d201d1f95d41ffe85f9c739f6760d540fe4155e5071e27b88173d953cd52"},
	} {
		name := fmt.Sprintf("%s/bs%d", row.name, row.n)
		m := MustNewModel(row.cfg, tensor.NewRNG(41))
		x := tensor.New(row.n, 3, row.cfg.InputH, row.cfg.InputW)
		tensor.NewRNG(43).FillNormal(x, 0.4, 0.3)
		h := sha256.New()
		_ = binary.Write(h, binary.LittleEndian, m.ForwardInferInt8(x).Data)
		if got := hex.EncodeToString(h.Sum(nil)); got != row.want {
			t.Errorf("%s: fingerprint %s, want %s", name, got, row.want)
		}
	}
}
