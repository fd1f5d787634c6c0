package carlane

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/ufld"
)

// TestDatasetFingerprint pins the renderer's output across commits: the
// SHA-256 over every pixel's bits and every label cell of all four
// splits of each benchmark at test sizes. A change to the renderer that
// moves one pixel bit or one label turns it red, so a speed-up of the
// data path can be shown to render the same frames.
func TestDatasetFingerprint(t *testing.T) {
	want := map[BenchmarkName]string{
		MoLane: "5f7e83a38a22100282e0d24117aa1e7d2570ba6743fb91e98c0f3c4756a875e6",
		TuLane: "fd1abf5fdfe8e804e71e9d78ca7bca48490b71968a67824cef0c5df3940d815e",
		MuLane: "426b5e85963500478aee0266b3b3926a81763aa8d4da27eaeea3df0dfa5e368f",
	}
	for _, name := range AllBenchmarks {
		b := Build(name, resnet.R18, ufld.Tiny, testSizes(), 7)
		h := sha256.New()
		var buf [8]byte
		for _, ds := range []*ufld.Dataset{b.SourceTrain, b.SourceVal, b.TargetTrain, b.TargetVal} {
			for _, s := range ds.Samples {
				for _, d := range s.Image.Shape() {
					binary.LittleEndian.PutUint64(buf[:], uint64(d))
					h.Write(buf[:])
				}
				for _, v := range s.Image.Data {
					binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
					h.Write(buf[:4])
				}
				binary.LittleEndian.PutUint64(buf[:], uint64(len(s.Cells)))
				h.Write(buf[:])
				for _, c := range s.Cells {
					binary.LittleEndian.PutUint64(buf[:], uint64(int64(c)))
					h.Write(buf[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s dataset fingerprint %s, want %s", name, got, want[name])
		}
	}
}
