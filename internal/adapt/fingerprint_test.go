package adapt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// hashModel writes every parameter value and every BN running statistic
// of m into h, in model order.
func hashModel(h hash.Hash, m *ufld.Model) {
	for _, p := range m.Params() {
		_ = binary.Write(h, binary.LittleEndian, p.Value.Data)
	}
	for _, b := range m.BatchNorms() {
		_ = binary.Write(h, binary.LittleEndian, b.RunningMean.Data)
		_ = binary.Write(h, binary.LittleEndian, b.RunningVar.Data)
	}
}

// TestAdaptFingerprint pins the adaptation loop across commits: the
// fixture's source-trained model (the ufld.TrainSource path), and
// RunOnline for the paper's method at batch sizes 1 and 4, its
// SGD/confidence variant and the two weight ablations. Each row hashes
// the OnlineResult, every parameter and every BN running statistic, so
// a refactor of the optimizer or the step that keeps it green moved no
// float bit. Never edit a constant in the same change as a refactor.
// Skipped under -short (the race pass): it probes no concurrency.
func TestAdaptFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("fingerprint pins rerun whole adaptation streams")
	}
	f := getFixture(t)
	h := sha256.New()
	hashModel(h, f.model)
	if got, want := hex.EncodeToString(h.Sum(nil)), "5c85ac3153fb40d08e7fcbe82d64097765e061b5b8be4c7779eca61c36e5a721"; got != want {
		t.Errorf("fixture TrainSource: fingerprint %s, want %s", got, want)
	}
	sgd := Config{LR: 1e-3, Momentum: 0.9, WarmupSteps: 1, Loss: Confidence, ClipNorm: 1}
	for _, row := range []struct {
		name string
		bs   int
		make func(m *ufld.Model) Method
		want string
	}{
		{"LD-BN-ADAPT bs=1", 1, func(m *ufld.Model) Method { return NewLDBNAdapt(m, DefaultConfig()) }, "7791eea4654ef5127fdeed501c67ca97c7479249fd1d5d8a9569533fc313bb84"},
		{"LD-BN-ADAPT bs=4", 4, func(m *ufld.Model) Method { return NewLDBNAdapt(m, DefaultConfig()) }, "e7696690d6c5593a75ad40cbe5eb5d33500948b8bc11004b4bed51ba1533f438"},
		{"LD-BN-ADAPT sgd+confidence bs=1", 1, func(m *ufld.Model) Method { return NewLDBNAdapt(m, sgd) }, "8d421a528b49f73048e6c36da0d9483929da2898a71fbafec8f921f4b41bb095"},
		{"CONV-ADAPT bs=4", 4, func(m *ufld.Model) Method { return NewConvAdapt(m, weightConfig()) }, "45c8ff20878a108f46aa0c25e40c1e98e1ec2e5a06319f2a33d142e03bd01298"},
		{"FC-ADAPT bs=4", 4, func(m *ufld.Model) Method { return NewFCAdapt(m, weightConfig()) }, "32c358716a629f306df81c45aae19b6f046fd782a429118960ed603fa49b3505"},
	} {
		m := f.model.Clone(tensor.NewRNG(1))
		res := RunOnline(m, row.make(m), f.bench.TargetTrain, f.bench.TargetVal, row.bs)
		h := sha256.New()
		fmt.Fprintf(h, "%+v", res)
		hashModel(h, m)
		if got := hex.EncodeToString(h.Sum(nil)); got != row.want {
			t.Errorf("%s: fingerprint %s, want %s (%+v)", row.name, got, row.want, res)
		}
	}
}

// TestSmallPaperLoopFingerprint pins the paper's per-frame loop on the
// Small profile, whose convolutions are wide enough to take the kernel
// paths Tiny never reaches: an untrained, seeded Small R-18 model runs
// forty seeded MoLane target frames of ForwardInfer then one
// LD-BN-ADAPT step each. The hash covers every frame's float logits,
// the int8 logits of the first and last frame, and the final BN state
// (γ/β and the running statistics). Never edit the constant in the same
// change as a kernel or layer change. Skipped under -short (the race
// pass): it probes no concurrency.
func TestSmallPaperLoopFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("fingerprint pins rerun whole adaptation streams")
	}
	const frames = 40
	cfg := ufld.Small(resnet.R18, 2)
	m := ufld.MustNewModel(cfg, tensor.NewRNG(2024))
	ds := carlane.Generate(cfg, carlane.SplitSpec{
		Name: "adapt/small-fingerprint", Layouts: []carlane.Layout{carlane.Ego2},
		Domains: []carlane.Domain{carlane.MoReal}, N: frames, Seed: 77,
	})
	meth := NewLDBNAdapt(m, DefaultConfig())
	h := sha256.New()
	idx := []int{0}
	for i := 0; i < frames; i++ {
		idx[0] = i
		x := ufld.Images(cfg, ds.Samples, idx)
		logits := m.ForwardInfer(x)
		if logits.HasNaN() {
			t.Fatalf("frame %d: non-finite logits", i)
		}
		_ = binary.Write(h, binary.LittleEndian, logits.Data)
		if i == 0 || i == frames-1 {
			_ = binary.Write(h, binary.LittleEndian, m.ForwardInferInt8(x).Data)
		}
		meth.Adapt(x)
	}
	for _, p := range m.BNParams() {
		_ = binary.Write(h, binary.LittleEndian, p.Value.Data)
	}
	for _, b := range m.BatchNorms() {
		_ = binary.Write(h, binary.LittleEndian, b.RunningMean.Data)
		_ = binary.Write(h, binary.LittleEndian, b.RunningVar.Data)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "4f5587021c8fed6459f3a55e7cc26c6bfb4102300b7b869eaa5b1797fde019bf"; got != want {
		t.Errorf("Small paper loop: fingerprint %s, want %s", got, want)
	}
}
