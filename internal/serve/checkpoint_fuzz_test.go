package serve

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to DecodeCheckpoint, the
// decoder the fleet's failover path runs on stored checkpoints. No
// input may panic, any input it accepts must hold non-negative
// counters and a finite positive FPS, and it must re-encode to bytes
// that decode and re-encode to the same bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	golden, err := os.ReadFile("testdata/checkpoint_v2.ldp1")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{})
	e := New(testModel(91), migrationConfig())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := e.DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		st := c.state
		if c.Stream < 0 || c.Epoch < 0 || c.sinceAdapt < 0 || st.steps < 0 || st.opt.Step < 0 {
			t.Fatalf("accepted negative counters: stream %d epoch %d sinceAdapt %d steps %d optimizer step %d",
				c.Stream, c.Epoch, c.sinceAdapt, st.steps, st.opt.Step)
		}
		if !(c.FPS > 0 && c.FPS <= math.MaxFloat64) {
			t.Fatalf("accepted FPS %v", c.FPS)
		}
		var once, twice bytes.Buffer
		if err := EncodeCheckpoint(&once, c); err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		again, err := e.DecodeCheckpoint(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if err := EncodeCheckpoint(&twice, again); err != nil {
			t.Fatalf("re-decoded checkpoint does not encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encode is not stable: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}

// FuzzEncodeCheckpoint holds the append encoder to the map-based
// oracle over fuzzed random states: the inputs pick the RNG seed, the
// BN layer count (up to 1200, past where sorted names leave numeric
// order), 0–3 pending samples, the forecaster kind (none or one of the
// built-in three), Quantized, empty optimizer moments, and whether the
// state fits the test model — then it also decodes through
// DecodeCheckpoint. Every encoding must equal the oracle's bytes and
// re-encode to itself after decoding.
func FuzzEncodeCheckpoint(f *testing.F) {
	for _, layers := range []uint16{0, 9, 10, 99, 100, 1000, 1001} {
		f.Add(int64(layers), layers, uint8(layers%4), uint8(layers%3), uint8(layers%8))
	}
	f.Add(int64(1), uint16(0), uint8(3), uint8(1), uint8(4))
	e := New(testModel(91), migrationConfig())
	kinds := []string{"", "naive", "ewma", "holt"}
	f.Fuzz(func(t *testing.T, seed int64, layers uint16, pending, kind, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		sh := ckptShape{widths: make([]int, layers%1201), image: []int{1 + rng.Intn(3), 2}}
		for j := range sh.widths {
			sh.widths[j] = rng.Intn(4)
		}
		var dec *Engine
		if flags&4 != 0 {
			sh, dec = modelShape(e), e
		} else {
			sh.emptyOpt = flags&2 != 0
		}
		sh.nPending, sh.fcKind, sh.quantized = int(pending%4), kinds[kind%4], flags&1 != 0
		checkEncoding(t, dec, randomCheckpoint(rng, sh))
	})
}
