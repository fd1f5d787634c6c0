package sota

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"ldbnadapt/internal/tensor"
)

// TestSOTAFingerprint pins the baseline across commits: one epoch of
// Run on the fixture's source-trained model, cloned and driven with
// fixed seeds (never the fixture's shared RNG, whose state depends on
// which tests ran first). The SHA-256 covers the Result's %+v (losses,
// inertia, pseudo-label count and cost counters), every parameter and
// every BN running statistic, so a refactor of the baseline that keeps
// it green moved no float bit. Never edit the constant in the same
// change as a refactor. Skipped under -short: it probes no
// concurrency.
func TestSOTAFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("fingerprint pins rerun whole training epochs")
	}
	f := getFixture(t)
	m := f.model.Clone(tensor.NewRNG(1))
	cfg := DefaultConfig()
	cfg.Epochs = 1
	res, err := New(m, cfg).Run(f.bench.SourceTrain, f.bench.TargetTrain, tensor.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v", *res)
	for _, p := range m.Params() {
		_ = binary.Write(h, binary.LittleEndian, p.Value.Data)
	}
	for _, b := range m.BatchNorms() {
		_ = binary.Write(h, binary.LittleEndian, b.RunningMean.Data)
		_ = binary.Write(h, binary.LittleEndian, b.RunningVar.Data)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "1370cdd3a10991737ac3b97ebd6d3a318525c876021b09806c8cf608a2d4a163"; got != want {
		t.Errorf("one SOTA epoch: fingerprint %s, want %s (%+v)", got, want, *res)
	}
}
